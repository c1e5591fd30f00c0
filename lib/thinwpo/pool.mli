(** A fixed-size domain pool with deterministic result placement.

    Thin-WPO's parallel phases all have the same shape: an array of
    independent shard jobs, executed by [workers] domains that pull the
    next unclaimed index from a shared atomic counter.  Results land in an
    index-addressed array, so the output is identical whatever order the
    domains finish in, and exceptions are re-raised for the {e smallest}
    failing index — again independent of scheduling — after every domain
    has been joined. *)

val resolve_workers : int -> int
(** [<= 0] means auto-detect: {!Domain.recommended_domain_count}. *)

val map : workers:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~workers f arr] with [min workers (Array.length arr)] domains,
    capped at {!Domain.recommended_domain_count}: more domains than cores
    only contend (on a 2-core host, 4 or 8 workers ran slower than 2).
    One effective worker runs inline on the calling domain, spawning
    nothing.  The cap never reaches the results, which are independent of
    the worker count. *)

val map_init :
  workers:int -> init:(unit -> 's) -> f:('s -> 'a -> 'b) -> 'a array -> 'b array
(** Like {!map}, but each worker first creates its own private state with
    [init] and threads it through every job it claims — the home for
    domain-local mutable structures (instruction interners, arena-pooled
    suffix trees) that must never be shared across domains. *)
