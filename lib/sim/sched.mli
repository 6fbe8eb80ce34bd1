(** Discrete-event process scheduler.

    Lifts the simulator from multiprogramming level 1 to true multi-user
    concurrency: cooperative simulated processes (OCaml effect-handler
    fibers) run over a pending-event priority queue keyed [(time, seqno)].
    A process runs until it blocks — {!delay}, {!sleep_until}, {!yield},
    or {!wait} on a condition — at which point the scheduler pops the
    next event, advances the shared {!Clock} to its time, and resumes
    that process.

    {b Determinism.} Events at equal simulated times run in the order
    they were scheduled (the strictly increasing [seqno] breaks ties),
    and condition queues are FIFO, so a seeded run is bit-for-bit
    reproducible.

    {b Clock discipline.} The running process advances the shared clock
    directly via [Clock.advance] (CPU and inline device charges
    serialize, as on a single-CPU machine); only blocking operations go
    through the event queue. A scheduler attaches to a clock at
    {!create} time and is discoverable from it via {!of_clock}, which is
    how subsystems deep in the stack (disk, log manager, lock manager)
    opt into blocking behavior without widening their constructors.

    {b Who may block.} {!current} is the one test every component makes
    before parking: it yields the scheduler only when the caller runs
    inside a process. With no scheduler attached — or when called from
    outside any process, as setup and recovery are — every component
    takes its direct path and the clock simply jumps. Besides the disk's
    arm and request queue, three homes build on it: {!Mutex}, the
    group-commit rendezvous [Groupcommit], and [Lockmgr.wait]. *)

type t

type cond
(** A condition variable: a FIFO queue of parked processes. *)

exception Stalled of int
(** Raised by {!run} when foreground processes remain but no pending
    event can wake any of them (every process is parked on a condition
    nobody will signal). Carries the number of stuck processes. *)

val create : Clock.t -> t
(** Attach a fresh scheduler to [clock]: installs the clock's sleeper
    hook (so [Clock.sleep_until] from inside a process parks it) and
    registers the pair for {!of_clock} discovery. At most one scheduler
    per clock; a second [create] replaces the first. *)

val detach : t -> unit
(** Undo {!create}: clear the sleeper hook and the registry entry. *)

val of_clock : Clock.t -> t option
(** The scheduler attached to this clock, if any. *)

val in_process : t -> bool
(** True while executing inside a spawned process — i.e. blocking
    operations are legal right now. *)

val current : Clock.t -> t option
(** The clock's scheduler, if the caller runs inside one of its
    processes and so may park. Allocation-free. *)

val self : t -> int
(** Identity of the running process: a positive id unique per spawned
    process, stable across suspensions. Only meaningful while
    [in_process] is true. *)

val now : t -> float
(** [Clock.now] of the attached clock. *)

val spawn : ?daemon:bool -> t -> (unit -> unit) -> unit
(** Create a process; it starts when {!run} reaches its start event
    (scheduled at the current time). [daemon] processes (background
    syncer, cleaner, disk server) do not keep {!run} alive: the loop
    exits when all non-daemon processes have finished. *)

val run : t -> unit
(** Drive the event loop until every foreground process has finished.
    Exceptions escaping a process (e.g. an injected crash) propagate out
    of [run] immediately, abandoning all other processes.
    @raise Stalled if foreground processes remain but the event queue
    cannot wake any of them. *)

val delay : t -> float -> unit
(** Park the calling process for a simulated duration. Other processes
    run in the meantime — this is how one process's disk wait overlaps
    another's CPU burst.
    @raise Invalid_argument if the duration is negative or not finite. *)

val sleep_until : t -> float -> unit
(** Park the calling process until an absolute deadline. Always yields,
    even when the deadline has already passed (the process resumes at
    the current time, after already-scheduled same-time events). *)

val yield : t -> unit
(** Reschedule the calling process at the current time, behind any
    already-pending same-time events. *)

val condition : unit -> cond

val wait : t -> cond -> unit
(** Park the calling process on [cond] until {!signal} or {!broadcast}.
    No spurious wakeups, but callers re-checking their predicate in a
    loop stay correct if another waiter runs first. *)

val signal : t -> cond -> unit
(** Wake the longest-parked waiter, scheduling it at the current time.
    No-op if nobody waits. Never blocks the caller. *)

val broadcast : t -> cond -> unit
(** Wake every waiter, in FIFO order, at the current time. *)

(** A mutex for simulated processes: inside a process a caller parks
    while another holds it; outside any process it never waits. A
    release wakes every waiter, and the longest-parked one takes it. *)
module Mutex : sig
  type t

  val create : Clock.t -> t

  val protect : t -> (unit -> 'a) -> 'a
  (** Hold the mutex across the call. *)

  val await : t -> unit
  (** Wait until the mutex is free without taking it. *)

  val wait_release : t -> unit
  (** Park the calling process until the next release (a no-op outside
      any process). *)
end
