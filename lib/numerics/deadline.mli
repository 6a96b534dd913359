(** Cooperative deadlines for long-running solves.

    A deadline is a wall-clock instant installed for the dynamic extent
    of a computation ({!with_until} / {!with_timeout}).  Solver loops and
    the interpreter's statement dispatcher call {!check} at natural
    cancellation points; once the instant has passed, {!check} raises
    {!Timed_out}, which unwinds the solve (all installers and the sink /
    context machinery are exception-safe).

    The deadline is domain-local: the evaluation server's worker domains
    install one per job, and every {!Pool} batch re-installs the calling
    domain's deadline around each chunk (via {!current} /
    {!with_current}), so a `--timeout` on the CLI also bounds parallel
    sweep iterations and parallel kernels.

    Deadlines nest by tightening: an inner [with_until] can only bring
    the instant closer, never extend the outer budget. *)

exception Timed_out
(** Raised by {!check} once the installed deadline has passed.  This is
    deliberately NOT an [Error]/[Failure]: the interpreter's
    per-statement recovery must not swallow a cancellation, so it
    propagates to whoever installed the deadline. *)

val with_until : float -> (unit -> 'a) -> 'a
(** [with_until t f] runs [f] with the deadline set to the absolute
    wall-clock instant [t] (seconds since the epoch, as
    [Unix.gettimeofday]), tightened against any enclosing deadline. *)

val with_timeout : float -> (unit -> 'a) -> 'a
(** [with_timeout s f] is [with_until (now + s) f]. *)

val check : unit -> unit
(** Raise {!Timed_out} if a deadline is installed and has passed.
    Cheap enough to call once per statement / solver sweep. *)

val active : unit -> bool
(** [true] when a deadline is installed on this domain. *)

val current : unit -> float option
(** The installed absolute deadline, if any — used by {!Pool} batches
    to carry the caller's deadline into worker domains. *)

val with_current : float option -> (unit -> 'a) -> 'a
(** [with_current (Some t) f] is [with_until t f]; [with_current None f]
    is [f ()]. *)

val remaining : unit -> float option
(** Seconds until the installed deadline (possibly negative). *)
