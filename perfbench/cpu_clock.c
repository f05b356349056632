/* The process's CPU clock in nanoseconds: it advances only while the
   benchmark runs on a CPU, so time the scheduler or a hypervisor gives
   to other work is not counted. */

#include <time.h>
#include <caml/mlvalues.h>

intnat perfbench_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value perfbench_cpu_ns_byte(value unit)
{
  return Val_long(perfbench_cpu_ns(unit));
}
