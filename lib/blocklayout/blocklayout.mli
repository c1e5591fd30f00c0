(** Block-granularity placement: hot/cold splitting and Codestitcher-style
    interprocedural chain stitching.

    The linker's unit of placement becomes the block chain — a function's
    hot prefix under its own symbol and, when split, a cold suffix placed
    in the [__text_cold] region under [Linker.cold_symbol].  Splitting and
    stitching only move bytes: unconditional branches to the next placed
    block are elided to zero-byte fallthroughs, and fallthroughs broken by
    the split are materialized back to branches, so observable behavior is
    unchanged (enforced by the perfsim differential on the fuzz lattice). *)

val fault_drop_materialized_branch : bool ref
(** Fault injection for [sizeopt fuzz --self-test]: the splitter's elision
    test judges adjacency in the pre-split block order, so branches whose
    pair the split separated are elided instead of materialized, leaving
    fallthrough edges that do not reach their target.  Caught by
    [Program.validate] and by interp-vs-oracle divergence. *)

val classify : ?profile:Pgo.Profile.index -> Machine.Mfunc.t -> string -> bool
(** Cold predicate over block labels.  With a block-level profile, a
    block of an executed function is cold iff its execution count is zero
    (never-executed functions are left whole).  Otherwise a static
    heuristic applies: blocks calling trap symbols ([swift_bounds_fail])
    seed the cold set, which absorbs every non-entry block reachable only
    from cold blocks.  The entry block is never cold. *)

val split_func : cold:(string -> bool) -> Machine.Mfunc.t -> Machine.Mfunc.t
(** Reorder blocks to hot-prefix/cold-suffix per [cold], set
    [cold_from], and rewrite unconditional terminators: elide
    branch-to-next within a section, materialize fallthroughs the split
    separated.  Single-block functions are returned unchanged. *)

val split_program : ?profile:Pgo.Profile.t -> Machine.Program.t -> Machine.Program.t
(** [split_func] over every function, classifying with [classify]. *)

val stitch_order : ?profile:Pgo.Profile.t -> Machine.Program.t -> string list
(** Placement order over chains for [Linker.link]: greedily concatenate
    callee sequences after callers along the hottest dynamic call edges
    (hottest first, lexicographic tiebreak — deterministic), emit
    sequences in first-touch order, never-executed functions in program
    order after them, and the cold chains of split functions last, in hot
    order.  Without a profile this degenerates to program order plus
    trailing cold chains. *)

val apply :
  ?profile:Pgo.Profile.t ->
  Machine.Program.t ->
  Machine.Program.t * string list
(** [split_program] then [stitch_order] on the split result. *)
