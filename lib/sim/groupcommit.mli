(** The group-commit rendezvous (Section 4.4) of both transaction
    managers: LIBTP's log manager and the embedded kernel manager.

    A batch flushes when [group_commit_size] committers have joined (the
    last one flushes inline) or when the timeout armed by its first
    committer expires; a timeout of 0 flushes every commit at once.
    Flushes exclude each other, and the end of each wakes every parked
    committer to re-check its own predicate. Outside any process (build,
    recovery) nobody can join a batch, so a deferred commit advances the
    clock by the timeout and flushes before returning.

    Stats, under the caller's [prefix]: ["<prefix>.group_commit_wait"]
    (total and histogram of the time committers waited) and
    ["<prefix>.commit_batch"] (committers per flush). *)

type t

val create : Clock.t -> Stats.t -> Config.t -> prefix:string -> t

val flush : t -> ready:(unit -> bool) -> (unit -> unit) -> unit
(** Wait out an in-flight flush; then, if [ready ()], claim the joined
    committers as one batch and run the body under the exclusion.
    Committers joining while the body is parked in I/O belong to the
    next batch. *)

val commit : t -> waiting:(unit -> bool) -> flush:(unit -> unit) -> unit
(** Join the current batch and return once [waiting ()] — the caller's
    "is my commit still volatile" — is false. The timeout flushes only
    while its arming committer still waits. [flush] is the caller's
    {!flush}. *)

val idle : t -> unit
(** Wait out an in-flight flush without starting one. *)

val exclusive : t -> (unit -> 'a) -> 'a
(** Run under the flush exclusion without claiming a batch. *)
