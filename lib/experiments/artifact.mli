(** Every [BENCH_*.json] artifact name and its check. Each experiment
    owns its rules ([check] beside its [to_json]); this module only maps
    names to experiments. *)

val check : Json.t -> string list
(** {!Expcommon.check_envelope}, then the rules of the experiment named
    by [meta.name]; an unknown name is itself a violation. [[]] means
    valid. *)
