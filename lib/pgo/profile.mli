(** Execution profiles for profile-guided code layout.

    A profile is what one deterministic simulator run (or several, one
    per entry point) distills into: the weighted dynamic call graph,
    per-function entry counts, and the startup first-touch order.  It is
    the record-once / replay-many artifact of the profile→layout loop:
    [sizeopt profile] writes it, [sizeopt build --profile-in] and the
    {!Order} algorithms consume it. *)

type t = {
  workload : string;             (** e.g. the app profile name *)
  entries : string list;         (** traced entry points, in run order *)
  first_touch : string list;     (** functions in first-execution order *)
  counts : (string * int) list;  (** function entry counts, sorted by name *)
  edges : ((string * string) * int) list;
      (** dynamic call edges (caller, callee) -> weight, sorted *)
  blocks : ((string * string) * int) list;
      (** basic-block execution counts (func, label) -> count, sorted;
          empty for v1 profiles, which predate block-level events *)
}

val current_version : int

val make :
  ?blocks:((string * string) * int) list ->
  workload:string ->
  entries:string list ->
  first_touch:string list ->
  counts:(string * int) list ->
  edges:((string * string) * int) list ->
  unit ->
  t
(** Canonicalizes: counts, edges and blocks are sorted, so {!to_string}
    is a deterministic function of the profile's contents. *)

val empty : workload:string -> t

type index
(** Hash tables over a profile's counts, edges, blocks and first-touch
    set.  Build it once per profile, then look up in O(1). *)

val index : t -> index

val count : index -> string -> int
val edge_weight : index -> caller:string -> callee:string -> int
val block_count : index -> func:string -> label:string -> int

val executed : index -> string -> bool
(** A function is "hot" iff it was first-touched; never-executed
    functions are what hot/cold splitting sends to the image tail. *)

val has_block_counts : index -> bool
(** Whether the profile carries any block-granularity data; when it does
    not, block-level consumers (hot/cold splitting) must fall back to
    static heuristics. *)

val total_edge_weight : t -> int
val equal : t -> t -> bool

val to_string : t -> string
(** The versioned text serialization (header ["pgo-profile v2"]).
    Canonical: structurally equal profiles serialize byte-identically. *)

val of_string : string -> (t, string) result
(** Accepts v1 (no block counts) and v2 headers; rejects unknown
    versions and malformed directives with a line-numbered error. *)

val save : string -> t -> unit
val load : string -> (t, string) result
