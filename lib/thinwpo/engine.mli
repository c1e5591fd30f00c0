(** The thin-WPO round engine: shard the merged program by originating
    module, discover outline candidates per shard in parallel (phase 1),
    take one serial global decision over the exchanged summaries (phase 2),
    and rewrite every shard in parallel against the decision table
    (phase 3).

    Determinism contract: the output program is a function of the input
    program and the options alone — {e never} of [workers] or domain
    scheduling.  Shards are formed in first-appearance order, workers write
    results into index-addressed slots, the decision table is ranked by
    (benefit, hash), outlined symbols are named from (round, rank), and
    hosted bodies are appended in rank order.  The fuzz lattice holds a
    byte-identity differential between [workers = 1] and [workers = 4]
    over exactly this contract. *)

type facts
(** The cross-round global facts table: thin-outlined symbols whose bodies
    are not SP-neutral callees.  Shared by every shard of every later
    round, because the callee's body may be hosted anywhere. *)

val create_facts : unit -> facts
val fact_sp_unsafe : facts -> string -> bool

module Report : sig
  (** Per-round wall-time split for [--profile] and the bench harness: one
      entry per shard (discovery and rewrite seconds) plus the serial
      global decision round, and the round's deterministic window
      counters.  [rs_discover] and [rr_decide] include the count step's
      time ([rs_keys], [rr_join]), so discovery, decision and rewrite still
      cover the whole round. *)

  type shard = {
    rs_module : string;
    rs_funcs : int;
    rs_keys : float;             (** keying this shard's windows *)
    rs_discover : float;         (** keying, materializing, refining *)
    rs_rewrite : float;
  }

  type round = {
    rr_round : int;
    rr_shards : shard list;      (** shard order *)
    rr_join : float;             (** counting the keys of every shard *)
    rr_decide : float;           (** the join and both decisions *)
    rr_selected : int;           (** decision-table entries *)
    rr_keyed : int;              (** legal windows keyed, all shards *)
    rr_materialized : int;       (** windows built into candidates *)
    rr_probed : int;             (** windows the refine probe built *)
    rr_decisions : Summary.decision list;  (** the final decision table *)
  }

  type t

  val create : unit -> t
  val rounds : t -> round list   (** chronological *)

  val to_json : t -> string
  (** JSON array, one object per round, for BENCH_thinwpo.json. *)
end

val run_round :
  ?report:Report.t ->
  ?hash_first:bool ->
  workers:int ->
  facts:facts ->
  options:Outcore.Outliner.options ->
  Machine.Program.t ->
  Machine.Program.t * Outcore.Outliner.round_stats
(** One three-phase round on [workers] domains ([options.round] names the
    round; [options.scope_name] is ignored — thin symbols are named from
    the decision table).  Newly selected sp-unsafe symbols are added to
    [facts].  When no global site is rewritten the input program is
    returned unchanged (mirroring the serial outliner's early stop), and
    [sequences_outlined = 0] tells the driver to stop iterating.

    Discovery counts before it materializes: shards key every legal window
    up to the scan cap ({!Outcore.Outliner.window_keys}), a serial join
    counts the keys, and only windows whose key occurs at least twice in
    the whole program become candidates.  After the provisional decision,
    each shard probes its windows of the advertised lengths past the cap
    for ranked patterns it lacks, and builds candidates only for windows
    whose key is the {!Outcore.Outliner.candidate_key} of a ranked
    phase-1 candidate past the cap.  [hash_first] (default [true]) set to
    [false] skips both key filters and materializes every window instead;
    the decision table and the output are the same either way. *)
