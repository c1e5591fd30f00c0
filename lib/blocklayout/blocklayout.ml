(* Block-granularity placement (Codestitcher-style): split cold basic
   blocks out of each function into the linker's __text_cold region, then
   stitch hot chains along the hottest interprocedural call edges so that
   caller and callee bytes land on the same pages and cache lines.

   The unit of placement becomes the *block chain*: a function's hot
   prefix under its own symbol and (when split) a cold suffix under
   [Linker.cold_symbol].  Within a chain, an unconditional branch to the
   block placed immediately next is elided to a zero-byte
   [Block.Fallthrough]; conversely, a fallthrough pair separated by the
   split has its branch materialized back to [Block.B].  Both directions
   are pure byte-layout transformations — observable behavior is
   preserved, which the perfsim differential and the fuzz lattice
   enforce. *)

open Machine

(* Fault injection for `sizeopt fuzz --self-test`: a splitter that drops
   branches layout must materialize — its elision test judges adjacency
   in the ORIGINAL block order, so when the split moves a cold run away
   from its originally-next block the branch back is elided anyway,
   leaving a fallthrough edge that does not reach its target.  Caught by
   Program.validate and by the interp differential (chains execute in
   address order, so a bad fallthrough runs the wrong bytes). *)
let fault_drop_materialized_branch = ref false

(* --- cold-block classification --------------------------------------------- *)

let static_trap_symbols = [ "swift_bounds_fail" ]

(* Static never-executed heuristic: trap-calling blocks (bounds-check
   failure paths) seed the cold set, which then absorbs every non-entry
   block reachable only from cold blocks (unreachable blocks included —
   they have no hot predecessor). *)
let classify_static (f : Mfunc.t) =
  match f.blocks with
  | [] | [ _ ] -> fun _ -> false
  | (entry : Block.t) :: _ ->
    let seeded (b : Block.t) =
      Array.exists
        (function
          | Insn.Bl s -> List.mem s static_trap_symbols
          | _ -> false)
        b.body
    in
    let preds = Hashtbl.create 16 in
    List.iter
      (fun (b : Block.t) ->
        List.iter
          (fun l ->
            Hashtbl.replace preds l
              (b.label :: Option.value ~default:[] (Hashtbl.find_opt preds l)))
          (Block.successors b.term))
      f.blocks;
    let cold = Hashtbl.create 16 in
    List.iter
      (fun (b : Block.t) ->
        if seeded b && not (String.equal b.label entry.label) then
          Hashtbl.replace cold b.label ())
      f.blocks;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (b : Block.t) ->
          if
            (not (Hashtbl.mem cold b.label))
            && not (String.equal b.label entry.label)
          then
            let ps = Option.value ~default:[] (Hashtbl.find_opt preds b.label) in
            let only_cold = List.for_all (Hashtbl.mem cold) ps in
            if only_cold then begin
              Hashtbl.replace cold b.label ();
              changed := true
            end)
        f.blocks
    done;
    Hashtbl.mem cold

(* Profile-based classification: a block of an executed function is cold
   iff the traces never entered it.  Functions the workload never touched
   are left whole — function-level ordering already sends them to the
   tail, and splitting them would only mint symbols. *)
let classify ?profile (f : Mfunc.t) =
  match profile with
  | Some ix when Pgo.Profile.has_block_counts ix ->
    if Pgo.Profile.executed ix f.name then fun label ->
      Pgo.Profile.block_count ix ~func:f.name ~label = 0
    else fun _ -> false (* never executed: keep whole *)
  | Some _ | None -> classify_static f

(* --- splitting and branch elision ------------------------------------------- *)

let split_func ~cold (f : Mfunc.t) =
  match f.blocks with
  | [] | [ _ ] -> f
  | (entry : Block.t) :: _ ->
    let is_cold (b : Block.t) =
      (not (String.equal b.label entry.label)) && cold b.label
    in
    let hot, coldb = List.partition (fun b -> not (is_cold b)) f.blocks in
    let n_hot = List.length hot in
    let arranged = hot @ coldb in
    let pos = Hashtbl.create 16 and orig_pos = Hashtbl.create 16 in
    List.iteri (fun i (b : Block.t) -> Hashtbl.replace pos b.label i) arranged;
    List.iteri (fun i (b : Block.t) -> Hashtbl.replace orig_pos b.label i) f.blocks;
    let same_section i j = i < n_hot = (j < n_hot) in
    let elide_ok i cur l =
      if !fault_drop_materialized_branch then
        (* faulty: adjacency judged in the pre-split order, so a branch
           whose pair the arrangement separated is elided instead of
           materialized *)
        match (Hashtbl.find_opt orig_pos l, Hashtbl.find_opt orig_pos cur) with
        | Some jo, Some io -> jo = io + 1
        | _ -> false
      else
        match Hashtbl.find_opt pos l with
        | None -> false
        | Some j -> j = i + 1 && same_section i j
    in
    let arranged =
      List.mapi
        (fun i (b : Block.t) ->
          match b.term with
          | Block.B l | Block.Fallthrough l ->
            if elide_ok i b.label l then { b with term = Block.Fallthrough l }
            else { b with term = Block.B l }
          | Block.Ret | Block.Bcond _ | Block.Cbz _ | Block.Cbnz _
          | Block.Tail_call _ ->
            b)
        arranged
    in
    let cold_from =
      match coldb with [] -> None | (b : Block.t) :: _ -> Some b.label
    in
    { f with blocks = arranged; cold_from }

let split_program ?profile (p : Program.t) =
  let profile = Option.map Pgo.Profile.index profile in
  Program.replace_funcs p
    (List.map (fun f -> split_func ~cold:(classify ?profile f) f) p.funcs)

(* --- interprocedural chain stitching ----------------------------------------

   Codestitcher's layout step, at chain granularity: process dynamic call
   edges from hottest to coldest and concatenate the callee's chain
   sequence after the caller's whenever the caller currently ends a
   sequence and the callee begins one — the block-layout analogue of
   C3's dominant-caller clustering.  Sequences are emitted in first-touch
   order (earliest member first), never-executed functions keep program
   order at the tail, and the cold chains of split functions close the
   image in the same order as their hot counterparts. *)
let stitch_order ?profile (p : Program.t) =
  let names = List.map (fun (f : Mfunc.t) -> f.name) p.funcs in
  let hot_order =
    match profile with
    | None -> names
    | Some prof ->
      let rank = Hashtbl.create 64 in
      List.iteri
        (fun i f -> if not (Hashtbl.mem rank f) then Hashtbl.add rank f i)
        prof.Pgo.Profile.first_touch;
      let known = Hashtbl.create 64 in
      List.iter (fun n -> Hashtbl.replace known n ()) names;
      let executed f = Hashtbl.mem rank f && Hashtbl.mem known f in
      let next = Hashtbl.create 64 and prev = Hashtbl.create 64 in
      let rec head_of u =
        match Hashtbl.find_opt prev u with None -> u | Some v -> head_of v
      in
      let edges =
        List.sort
          (fun ((c1, e1), w1) ((c2, e2), w2) ->
            match Int.compare w2 w1 with
            | 0 -> (
              match String.compare c1 c2 with
              | 0 -> String.compare e1 e2
              | n -> n)
            | n -> n)
          prof.Pgo.Profile.edges
      in
      List.iter
        (fun ((caller, callee), w) ->
          if
            w > 0 && executed caller && executed callee
            && (not (Hashtbl.mem next caller))
            && (not (Hashtbl.mem prev callee))
            && not (String.equal (head_of caller) (head_of callee))
          then begin
            Hashtbl.replace next caller callee;
            Hashtbl.replace prev callee caller
          end)
        edges;
      let emitted = Hashtbl.create 64 in
      let sequences =
        List.filter_map
          (fun n ->
            if executed n && not (Hashtbl.mem prev n) then begin
              let rec walk u acc =
                match Hashtbl.find_opt next u with
                | Some v -> walk v (v :: acc)
                | None -> List.rev acc
              in
              let seq = walk n [ n ] in
              let r =
                List.fold_left
                  (fun a u ->
                    min a
                      (Option.value ~default:max_int (Hashtbl.find_opt rank u)))
                  max_int seq
              in
              Some (r, seq)
            end
            else None)
          names
      in
      let sequences =
        List.sort (fun (r1, _) (r2, _) -> Int.compare r1 r2) sequences
      in
      let out = ref [] in
      List.iter
        (fun (_, seq) ->
          List.iter
            (fun u ->
              if not (Hashtbl.mem emitted u) then begin
                Hashtbl.replace emitted u ();
                out := u :: !out
              end)
            seq)
        sequences;
      (* never-executed functions: program order, after the hot tail *)
      List.iter
        (fun n ->
          if not (Hashtbl.mem emitted n) then begin
            Hashtbl.replace emitted n ();
            out := n :: !out
          end)
        names;
      List.rev !out
  in
  let split = Hashtbl.create 16 in
  List.iter
    (fun (f : Mfunc.t) ->
      if Mfunc.is_split f then Hashtbl.replace split f.name ())
    p.funcs;
  hot_order
  @ List.filter_map
      (fun n ->
        if Hashtbl.mem split n then Some (Linker.cold_symbol n) else None)
      hot_order

let apply ?profile (p : Program.t) =
  let p = split_program ?profile p in
  (p, stitch_order ?profile p)
