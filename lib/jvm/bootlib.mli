(** The boot class library.

    The minimal [java/lang] and [java/io] surface the workloads and
    services need, plus the native methods backing it. Native
    operations carry fixed simulated costs matching the baseline
    column of the paper's Figure 9 where one is reported.

    Security-relevant natives (property access, file open, thread
    priority) consult [vm.security_hook], modelling the monolithic JDK
    SecurityManager's anticipated check points. File {e read} has no
    hook — the paper's example of a hole only binary rewriting can
    close. *)

val boot_classes : unit -> Bytecode.Classfile.t list

val fresh_vm :
  ?budget:int64 -> ?provider:Classreg.provider -> unit -> Vmstate.t
(** A new VM with the boot library installed. [budget] caps the
    instructions it may run; [test_jvm]'s "budget" and [test_verifier]'s
    runs of rewritten code set it to stop a runaway loop. *)
