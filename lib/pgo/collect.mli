(** Profile collection: run entry points under {!Perfsim.Interp.run_counted}
    and name its slot counts once per run, after it ends: a block's count
    is its start slot's hits, an edge's weight sums its call sites, and a
    function's entry count is its incoming edge weight plus the runs
    started at it.  The simulator is deterministic, so the same program +
    the same entries produce a byte-identical serialized profile —
    profiles can be recorded in one build and replayed in another. *)

val default_config : Perfsim.Interp.config
(** Cost model off (counts are unaffected), unknown externs no-op,
    50M-step budget. *)

val collect :
  ?config:Perfsim.Interp.config ->
  ?args_for:(string -> int list) ->
  workload:string ->
  entries:string list ->
  Machine.Program.t ->
  Profile.t * (string * Perfsim.Interp.error) list
(** Run every entry and distill one profile.  [args_for] supplies
    per-entry integer arguments.  Runs that failed (missing entry, trap,
    step limit) contribute what they executed before the failure and are
    returned with their error, in entry order. *)

val self_profile_steps : int
(** The step budget of a build's self-profile: 20M. *)

val self_profile :
  Machine.Program.t -> Profile.t * (string * Perfsim.Interp.error) list
(** What a build without [--profile-in] lays out from: [main] alone,
    workload ["self"], {!self_profile_steps} steps. *)

val stop_warning : budget:int -> string * Perfsim.Interp.error -> string
(** One line naming an entry whose run stopped early, why, and the
    [budget] it ran under. *)
