/* A wall-clock sampling profiler for one process, loaded with
   LD_PRELOAD (tools/profile/profile.py builds and loads it).

   A CLOCK_MONOTONIC POSIX timer sends SIGPROF to the thread that loaded
   the library every 300 us. The handler records the interrupted program
   counter and the glibc backtrace of the interrupted thread into a
   buffer reserved up front. At exit the library writes the samples to
   samples.<pid> and a copy of /proc/self/maps to maps.<pid>, both in
   the current directory.

   Why not setitimer(ITIMER_PROF) or perf: in some virtual machines the
   CPU-time timer delivers only a fraction of its ticks, and perf may
   have no access to the PMU. A monotonic timer fires on wall time, so
   it suits a single-threaded process that does not block.

   samples.<pid> is a flat array of native-endian 64-bit words; each
   sample is [n; pc; frame_1 .. frame_n], frame_1 innermost. */

#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define INTERVAL_NS 300000L
#define MAX_DEPTH 96
/* 256 MB of address space, reserved without backing: only the pages
   the samples reach are ever touched. */
#define BUF_WORDS ((size_t)32 << 20)

static uint64_t *buf;
static size_t used;
static size_t dropped;
static timer_t timer;
static int armed;

static void on_prof(int sig, siginfo_t *si, void *ctx) {
  (void)sig;
  (void)si;
  int saved = errno;
  if (used + 2 + MAX_DEPTH > BUF_WORDS) {
    dropped++;
  } else {
    uint64_t *rec = buf + used;
    void *frames[MAX_DEPTH];
    int n = backtrace(frames, MAX_DEPTH);
    rec[0] = (uint64_t)n;
    rec[1] = (uint64_t)((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
    for (int i = 0; i < n; i++) rec[2 + i] = (uint64_t)(uintptr_t)frames[i];
    used += 2 + (size_t)n;
  }
  errno = saved;
}

static void write_all(int fd, const void *p, size_t len) {
  const char *c = p;
  while (len > 0) {
    ssize_t k = write(fd, c, len);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return;
    c += k;
    len -= (size_t)k;
  }
}

__attribute__((constructor)) static void start(void) {
  buf = mmap(NULL, BUF_WORDS * sizeof(uint64_t), PROT_READ | PROT_WRITE,
             MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (buf == MAP_FAILED) {
    perror("sampler: mmap");
    return;
  }
  /* The first backtrace loads the unwinder; do it outside the handler. */
  void *warm[4];
  backtrace(warm, 4);
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0) {
    perror("sampler: sigaction");
    return;
  }
  struct sigevent ev;
  memset(&ev, 0, sizeof ev);
  ev.sigev_notify = SIGEV_THREAD_ID;
  ev.sigev_signo = SIGPROF;
  ev._sigev_un._tid = (pid_t)syscall(SYS_gettid);
  if (timer_create(CLOCK_MONOTONIC, &ev, &timer) != 0) {
    perror("sampler: timer_create");
    return;
  }
  struct itimerspec its = {{0, INTERVAL_NS}, {0, INTERVAL_NS}};
  if (timer_settime(timer, 0, &its, NULL) != 0) {
    perror("sampler: timer_settime");
    timer_delete(timer);
    return;
  }
  armed = 1;
}

__attribute__((destructor)) static void stop(void) {
  if (!armed) return;
  armed = 0;
  timer_delete(timer);
  signal(SIGPROF, SIG_IGN);
  char path[64];
  snprintf(path, sizeof path, "samples.%d", (int)getpid());
  int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    write_all(fd, buf, used * sizeof(uint64_t));
    close(fd);
  }
  snprintf(path, sizeof path, "maps.%d", (int)getpid());
  int out = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  int in = open("/proc/self/maps", O_RDONLY);
  if (out >= 0 && in >= 0) {
    char chunk[8192];
    ssize_t k;
    while ((k = read(in, chunk, sizeof chunk)) > 0) write_all(out, chunk, (size_t)k);
  }
  if (in >= 0) close(in);
  if (out >= 0) close(out);
  if (dropped > 0)
    fprintf(stderr, "sampler: buffer full, %zu samples dropped\n", dropped);
}
