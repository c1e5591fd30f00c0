(* Thin-WPO: summary exchange, the global decision round, and the
   determinism contract — the output program must be a function of the
   input alone, never of the worker count, domain scheduling, or repeated
   runs.  Degenerate shardings (one module, an empty module, all-identical
   modules) exercise the boundaries of the first-appearance sharder. *)

open Machine

let ok_exn = function Ok x -> x | Error e -> Alcotest.fail e

let source p = Asm_printer.to_source p

let thin_config workers =
  { Pipeline.default_config with mode = Pipeline.Thin_wpo { workers } }

let build_thin ~workers srcs =
  ok_exn (Pipeline.build_sources ~config:(thin_config workers) srcs)

(* The small appgen workload, generated once and shared. *)
let small_srcs =
  lazy (Workload.Appgen.generate_sources Workload.Appgen.small)

(* --- summaries -------------------------------------------------------------- *)

let handmade_summary =
  {
    Thinwpo.Summary.sm_module = "feature_one";
    sm_patterns =
      [
        {
          Thinwpo.Summary.ps_hash = 0xdeadbeefcafef00dL;
          ps_length = 6;
          ps_strategy = Outcore.Candidate.Ends_with_ret;
          ps_needs_lr_frame = false;
          ps_touches_sp = false;
          ps_n_free = 4;
          ps_n_save = 0;
        };
        {
          Thinwpo.Summary.ps_hash = 0x8000000000000001L;
          (* high bit set: the textual form must round-trip unsigned *)
          ps_length = 9;
          ps_strategy = Outcore.Candidate.Thunk;
          ps_needs_lr_frame = true;
          ps_touches_sp = true;
          ps_n_free = 2;
          ps_n_save = 3;
        };
        {
          Thinwpo.Summary.ps_hash = 0x42L;
          ps_length = 3;
          ps_strategy = Outcore.Candidate.Plain_call;
          ps_needs_lr_frame = false;
          ps_touches_sp = true;
          ps_n_free = 0;
          ps_n_save = 2;
        };
      ];
  }

let test_summary_roundtrip () =
  let s = handmade_summary in
  let s' = ok_exn (Thinwpo.Summary.of_string (Thinwpo.Summary.to_string s)) in
  Alcotest.(check bool) "handmade summary round-trips" true (s = s');
  (* And a summary built from real candidates of a real program. *)
  let p = Fuzz.Machgen.generate (Random.State.make [| 21; 7 |]) ~fuel:8 in
  let cands = Outcore.Outliner.enumerate p in
  Alcotest.(check bool) "the probe program yields candidates" true
    (cands <> []);
  let pairs =
    List.map (fun c -> (Thinwpo.Summary.hash_candidate c, c)) cands
  in
  let s = Thinwpo.Summary.of_candidates ~modul:"probe" pairs in
  let s' = ok_exn (Thinwpo.Summary.of_string (Thinwpo.Summary.to_string s)) in
  Alcotest.(check bool) "real summary round-trips" true (s = s');
  List.iter
    (fun bad ->
      match Thinwpo.Summary.of_string bad with
      | Ok _ -> Alcotest.failf "expected a parse error for %S" bad
      | Error _ -> ())
    [ ""; "garbage"; "thin-summary module=m patterns=2\n" ]

let test_hash_stability () =
  (* Same candidate list hashed twice: identical hashes (no interner or
     scheduling dependence), and honest hashes use the full 64-bit space
     (no two distinct patterns of this probe collide). *)
  let p = Fuzz.Machgen.generate (Random.State.make [| 22; 7 |]) ~fuel:8 in
  let cands = Outcore.Outliner.enumerate p in
  let h1 = List.map Thinwpo.Summary.hash_candidate cands in
  let h2 = List.map Thinwpo.Summary.hash_candidate cands in
  Alcotest.(check bool) "hashing is pure" true (h1 = h2)

(* --- the global decision round ---------------------------------------------- *)

let mk_pattern ?(strategy = Outcore.Candidate.Ends_with_ret) ?(lr = false)
    ?(sp = false) ?(len = 8) ?(free = 6) ?(save = 0) hash =
  {
    Thinwpo.Summary.ps_hash = hash;
    ps_length = len;
    ps_strategy = strategy;
    ps_needs_lr_frame = lr;
    ps_touches_sp = sp;
    ps_n_free = free;
    ps_n_save = save;
  }

let mk_summary modul patterns =
  { Thinwpo.Summary.sm_module = modul; sm_patterns = patterns }

let test_decide_tie_breaking () =
  (* Two patterns with identical benefit must rank by unsigned hash
     ascending — 0x10 before 0x8000000000000001 even though the latter is
     negative as a signed int64. *)
  let b =
    Outcore.Cost_model.benefit_of_counts Outcore.Candidate.Ends_with_ret
      ~needs_lr_frame:false ~pattern_len:8 ~n_free:6 ~n_save:0
  in
  Alcotest.(check bool) "the tie fixture is profitable" true (b >= 1);
  let summaries =
    [
      mk_summary "beta" [ mk_pattern 0x8000000000000001L; mk_pattern 0x10L ];
      mk_summary "alpha" [ mk_pattern 0x10L ];
    ]
  in
  let ds = Thinwpo.Summary.decide ~round:1 summaries in
  Alcotest.(check int) "both ties selected" 2 (List.length ds);
  let d0 = List.nth ds 0 and d1 = List.nth ds 1 in
  (* 0x10 has double the sites (two shards), so it wins on benefit; the
     point here is the names and ranks are stable and positional. *)
  Alcotest.(check string) "rank 0 name" "OUTLINED_THIN_1_0" d0.dc_name;
  Alcotest.(check string) "rank 1 name" "OUTLINED_THIN_1_1" d1.dc_name;
  Alcotest.(check int) "ranks positional" 1 d1.dc_rank;
  Alcotest.(check string) "host is the least contributing module" "alpha"
    d0.dc_host;
  (* Now a pure tie: equal counts, distinct hashes, one shard. *)
  let ds =
    Thinwpo.Summary.decide ~round:3
      [ mk_summary "m" [ mk_pattern 0x8000000000000001L; mk_pattern 0x10L ] ]
  in
  (match ds with
  | [ a; b ] ->
    Alcotest.(check bool) "unsigned hash order breaks the tie" true
      (a.Thinwpo.Summary.dc_hash = 0x10L
      && b.Thinwpo.Summary.dc_hash = 0x8000000000000001L);
    Alcotest.(check string) "round number in the name" "OUTLINED_THIN_3_0"
      a.Thinwpo.Summary.dc_name
  | _ -> Alcotest.fail "expected exactly two decisions");
  (* Arrival order of the summaries must not matter. *)
  let flip =
    Thinwpo.Summary.decide ~round:1
      [
        mk_summary "alpha" [ mk_pattern 0x10L ];
        mk_summary "beta" [ mk_pattern 0x8000000000000001L; mk_pattern 0x10L ];
      ]
  in
  Alcotest.(check bool) "decision table independent of summary order" true
    (Thinwpo.Summary.decide ~round:1 summaries = flip)

let test_decide_filters () =
  (* A single global site can never profit; an unprofitable pattern with
     two sites is rejected by the cost model. *)
  let ds =
    Thinwpo.Summary.decide ~round:1
      [
        mk_summary "m"
          [ mk_pattern ~free:1 0x1L; mk_pattern ~len:2 ~free:2 ~save:0 0x2L ];
      ]
  in
  Alcotest.(check int) "no decision survives the filters" 0 (List.length ds);
  (* sp-unsafety is the OR of the two legality bits. *)
  let ds =
    Thinwpo.Summary.decide ~round:1
      [
        mk_summary "m"
          [ mk_pattern ~sp:true 0x1L;
            mk_pattern ~lr:true ~save:6 ~free:0 ~strategy:Outcore.Candidate.Plain_call 0x2L ];
      ]
  in
  List.iter
    (fun d ->
      Alcotest.(check bool)
        ("decision " ^ d.Thinwpo.Summary.dc_name ^ " marked sp-unsafe")
        true d.Thinwpo.Summary.dc_sp_unsafe)
    ds;
  Alcotest.(check bool) "the sp fixture selected something" true (ds <> [])

(* --- end-to-end determinism ------------------------------------------------- *)

let test_workers_byte_identical () =
  let srcs = Lazy.force small_srcs in
  let r1 = build_thin ~workers:1 srcs in
  (* The identity must not be vacuous: thin outlining actually fired. *)
  let outlined =
    List.fold_left
      (fun acc (s : Outcore.Outliner.round_stats) ->
        acc + s.sequences_outlined)
      0 r1.Pipeline.outline_stats
  in
  Alcotest.(check bool) "thin outlining rewrote sites" true (outlined > 0);
  List.iter
    (fun workers ->
      let r = build_thin ~workers srcs in
      Alcotest.(check string)
        (Printf.sprintf "workers=%d byte-identical to workers=1" workers)
        (source r1.Pipeline.program) (source r.Pipeline.program);
      Alcotest.(check int)
        (Printf.sprintf "workers=%d same binary size" workers)
        r1.Pipeline.binary_size r.Pipeline.binary_size)
    [ 2; 4; 0 (* auto-detect *) ];
  (* Repeated runs at the same worker count reproduce the image too. *)
  let r2 = build_thin ~workers:2 srcs in
  let r3 = build_thin ~workers:2 srcs in
  Alcotest.(check string) "repeated runs byte-identical"
    (source r2.Pipeline.program) (source r3.Pipeline.program)

let test_thin_tracks_full_wpo () =
  (* Discovery is window-complete up to the scan cap, so thin usually
     lands at or below the serial whole-program image (it even catches
     non-maximal repeats the serial enumeration misses); the optimistic
     losses that remain must stay within 1%. *)
  let srcs = Lazy.force small_srcs in
  let thin = build_thin ~workers:2 srcs in
  let full = ok_exn (Pipeline.build_sources srcs) in
  let t = thin.Pipeline.code_size and f = full.Pipeline.code_size in
  let slack = max (f / 100) 64 in
  Alcotest.(check bool)
    (Printf.sprintf "thin code size %d within 1%% of full WPO %d" t f)
    true
    (t - f <= slack)

(* --- count, then materialize ------------------------------------------------- *)

(* Pre-outline machine programs from the fuzz lattice's seeded corpus
   ([sizeopt fuzz --seed 1]): Swiftlet programs compiled with outlining
   off, and direct machine programs with their functions dealt round-robin
   into three modules so the round has shards to join across. *)
let lattice_programs =
  lazy
    (List.filter_map
       (fun index ->
         let st = Random.State.make [| 1; index |] in
         if index mod 4 = 3 then
           let p = Fuzz.Machgen.generate st ~fuel:8 in
           Some
             (Program.replace_funcs p
                (List.mapi
                   (fun i (f : Mfunc.t) ->
                     { f with Mfunc.from_module = Printf.sprintf "m%d" (i mod 3) })
                   p.Program.funcs))
         else
           let srcs = Fuzz.Swiftgen.to_sources (Fuzz.Swiftgen.generate st ~fuel:8) in
           match
             Pipeline.build_sources
               ~config:{ Pipeline.default_config with outline_rounds = 0 }
               srcs
           with
           | Ok r -> Some r.Pipeline.program
           | Error _ -> None)
       (List.init 8 Fun.id))

let test_hash_first_same_decisions () =
  let decided = ref 0 and skipped = ref 0 in
  List.iteri
    (fun i p ->
      let run hash_first p round =
        let report = Thinwpo.Engine.Report.create () in
        let p', _ =
          Thinwpo.Engine.run_round ~report ~hash_first ~workers:1
            ~facts:(Thinwpo.Engine.create_facts ())
            ~options:{ Outcore.Outliner.default_options with round }
            p
        in
        (p', List.hd (Thinwpo.Engine.Report.rounds report))
      in
      (* Three rounds, each started from the reference round's output. *)
      let rec go p round =
        if round <= 3 then begin
          let ref_p, ref_r = run false p round in
          let p', r = run true p round in
          let label = Printf.sprintf "program %d round %d" i round in
          Alcotest.(check bool) (label ^ ": same decision table") true
            (r.rr_decisions = ref_r.rr_decisions);
          Alcotest.(check string) (label ^ ": same program") (source ref_p)
            (source p');
          Alcotest.(check bool)
            (label ^ ": materializes no more than it keyed")
            true
            (r.rr_materialized <= r.rr_keyed
            && r.rr_materialized <= ref_r.rr_materialized
            && r.rr_probed <= ref_r.rr_probed);
          skipped := !skipped + ref_r.rr_materialized - r.rr_materialized;
          decided := !decided + List.length r.rr_decisions;
          go ref_p (round + 1)
        end
      in
      go p 1)
    (Lazy.force lattice_programs);
  (* Not vacuous: rounds decided something, and counting dropped windows. *)
  Alcotest.(check bool) "the corpus produced decisions" true (!decided > 0);
  Alcotest.(check bool) "counting skipped windows" true (!skipped > 0)

(* [Mov (d, Rop s)] respelled as the [orr d, xzr, s] it prints as. *)
let orr_spelling (p : Program.t) =
  Program.replace_funcs p
    (List.map
       (Mfunc.map_blocks (fun (blk : Block.t) ->
            {
              blk with
              Block.body =
                Array.map
                  (function
                    | Insn.Mov (d, (Insn.Rop _ as s)) ->
                      Insn.Binop (Insn.Orr, d, Reg.XZR, s)
                    | i -> i)
                  blk.Block.body;
            }))
       p.Program.funcs)

let test_window_keys_module_independent () =
  let body =
    "  mov x1, #3\n  add x2, x1, #7\n  orr x4, xzr, x2\n  mul x3, x2, x1\n"
  in
  let shard modul label =
    ok_exn
      (Asm_parser.parse_program
         (Printf.sprintf "func f_%s module=%s:\n%s:\n%s  ret\n" modul modul
            label body))
  in
  let keys p =
    let k = Outcore.Outliner.window_keys ~lengths:[ 2; 3; 4; 5 ] p in
    Array.sort Int.compare k;
    k
  in
  let a = keys (shard "alpha" "entry") in
  Alcotest.(check int) "every legal window keyed" (4 + 3 + 2 + 1)
    (Array.length a);
  Alcotest.(check (array int)) "same block, same keys in another module" a
    (keys (shard "beta" "top"));
  (* [Mov (d, Rop s)] prints as [orr d, xzr, s], so summary hashes cannot
     tell it from the [Binop] spelling, and neither may the keys. *)
  Alcotest.(check (array int)) "orr spelling of the move keys alike" a
    (keys (orr_spelling (shard "gamma" "entry")));
  let other = ok_exn (Asm_parser.parse_program
      "func g module=delta:\nentry:\n  mov x1, #4\n  add x2, x1, #7\n  ret\n")
  in
  Alcotest.(check bool) "different content, different keys" false
    (Array.exists (fun k -> Array.mem k a) (keys other))

(* The refine probe keeps a window only if its key is the [candidate_key]
   of a candidate built elsewhere, so a candidate's key must be the key
   [iter_windows] offers for its window.  Probing with a filter that
   accepts exactly the candidates' own keys must rebuild every candidate
   (a window whose key disagreed would be dropped), and every candidate
   key must have been offered.  Lengths run past the scan cap. *)
let test_candidate_key_agreement () =
  let lengths = List.init 39 (fun i -> i + 2) in
  let with_ret = ref 0 and moves = ref 0 in
  List.iteri
    (fun i p ->
      let offered = Hashtbl.create 1024 in
      let all =
        Outcore.Outliner.probe_windows ~lengths
          ~keep:(fun k -> Hashtbl.replace offered k (); true)
          p
      in
      let keys = Hashtbl.create 1024 in
      List.iter
        (fun c -> Hashtbl.replace keys (Outcore.Outliner.candidate_key c) ())
        all;
      let label = Printf.sprintf "program %d" i in
      Alcotest.(check bool) (label ^ ": every candidate key was offered") true
        (Hashtbl.fold (fun k () ok -> ok && Hashtbl.mem offered k) keys true);
      Alcotest.(check bool)
        (label ^ ": filtering by candidate keys rebuilds every candidate")
        true
        (Outcore.Outliner.probe_windows ~lengths ~keep:(Hashtbl.mem keys) p
        = all);
      (* The orr spelling of a move prints alike, so it must key alike:
         the same windows, in the same order, with the same keys. *)
      let respelled = Outcore.Outliner.probe_windows ~lengths (orr_spelling p) in
      Alcotest.(check (list int)) (label ^ ": orr spelling keys alike")
        (List.map Outcore.Outliner.candidate_key all)
        (List.map Outcore.Outliner.candidate_key respelled);
      List.iter
        (fun (c : Outcore.Candidate.t) ->
          if c.strategy = Outcore.Candidate.Ends_with_ret then incr with_ret;
          if
            List.exists
              (function Insn.Mov (_, Insn.Rop _) -> true | _ -> false)
              c.insns
          then incr moves)
        all)
    (Lazy.force lattice_programs);
  Alcotest.(check bool) "ret-slot windows covered" true (!with_ret > 0);
  Alcotest.(check bool) "register moves covered" true (!moves > 0)

(* A pattern longer than the scan cap, twice in module [a] and once in
   module [b], in a ret-ending and a plain-call variant.  Phase 1 sees only
   [a]'s pair (its suffix tree repeat); [b]'s copy is found by the refine
   probe, and the final decision must count all three sites.  The pattern
   must be long enough that its two-site provisional benefit outranks its
   own three-site windows of the scan cap's length — at 40 instructions
   those windows win the ranked site assignment and the long pattern is
   never decided; from 63 instructions on both variants are. *)
let long_pattern_len = 64

let test_long_pattern_found_by_probe () =
  let pattern base =
    String.concat ""
      (List.init long_pattern_len (fun i ->
           Printf.sprintf "  add x%d, x%d, #%d\n" (1 + (i mod 3))
             (1 + ((i + 1) mod 3)) (base + i)))
  in
  let ret_pat = pattern 100 and plain_pat = pattern 500 in
  let func name modul k =
    (* [k] makes each function's tail unique, so only the patterns repeat *)
    Printf.sprintf
      "func %s_ret module=%s:\nentry:\n  mov x1, #%d\n%s  ret\n\
       func %s_plain module=%s:\nentry:\n  mov x2, #%d\n%s  mul x3, x1, \
       #%d\n  ret\n"
      name modul k ret_pat name modul (k + 1) plain_pat (k + 2)
  in
  let p =
    ok_exn
      (Asm_parser.parse_program
         (func "a_one" "a" 1000 ^ func "a_two" "a" 2000
        ^ func "b_one" "b" 3000))
  in
  let run hash_first =
    let report = Thinwpo.Engine.Report.create () in
    let p', stats =
      Thinwpo.Engine.run_round ~report ~hash_first ~workers:1
        ~facts:(Thinwpo.Engine.create_facts ())
        ~options:Outcore.Outliner.default_options p
    in
    (p', stats, List.hd (Thinwpo.Engine.Report.rounds report))
  in
  let p', stats, r = run true in
  let ref_p, _, ref_r = run false in
  Alcotest.(check string) "same program as the unkeyed probe" (source ref_p)
    (source p');
  Alcotest.(check bool) "the keyed probe built fewer candidates" true
    (0 < r.rr_probed && r.rr_probed < ref_r.rr_probed);
  (* Each outlined body of at least [long_pattern_len] instructions is
     reached from three call sites, one of them in module [b]. *)
  let calls_to name =
    List.fold_left
      (fun n (f : Mfunc.t) ->
        List.fold_left
          (fun n (blk : Block.t) ->
            let n =
              n
              + Array.fold_left
                  (fun n i -> if i = Insn.Bl name then n + 1 else n)
                  0 blk.Block.body
            in
            match blk.Block.term with
            | Block.Tail_call l when l = name -> n + 1
            | _ -> n)
          n f.Mfunc.blocks)
      0 p'.Program.funcs
  in
  let long_hosts =
    List.filter
      (fun (f : Mfunc.t) ->
        f.Mfunc.is_outlined
        && List.fold_left
             (fun n (blk : Block.t) -> n + Array.length blk.Block.body)
             0 f.Mfunc.blocks
           >= long_pattern_len)
      p'.Program.funcs
  in
  (* The decision table holds the two patterns at their three-site
     benefit: ret-ending sites are tail branches, the plain-call sites
     spill LR (it is live up to each function's [ret]). *)
  let three_sites strategy ~pattern_len ~n_free ~n_save =
    Outcore.Cost_model.benefit_of_counts strategy ~needs_lr_frame:false
      ~pattern_len ~n_free ~n_save
  in
  Alcotest.(check (list int)) "decided with three sites each"
    [
      three_sites Outcore.Candidate.Ends_with_ret
        ~pattern_len:(long_pattern_len + 1) ~n_free:3 ~n_save:0;
      three_sites Outcore.Candidate.Plain_call ~pattern_len:long_pattern_len
        ~n_free:0 ~n_save:3;
    ]
    (List.map
       (fun (d : Thinwpo.Summary.decision) -> d.dc_benefit)
       r.rr_decisions);
  Alcotest.(check int) "both long patterns outlined" 2 (List.length long_hosts);
  List.iter
    (fun (f : Mfunc.t) ->
      Alcotest.(check int) (f.Mfunc.name ^ ": all three sites") 3
        (calls_to f.Mfunc.name))
    long_hosts;
  Alcotest.(check bool) "sites rewritten" true
    (stats.Outcore.Outliner.sequences_outlined >= 6)

(* --- degenerate shardings --------------------------------------------------- *)

let repeats_body =
  (* Enough straight-line repetition for the outliner to bite. *)
  {|
  var acc = s
  acc = acc * 3 + 7
  acc = acc * 3 + 7
  acc = acc * 3 + 7
  acc = acc * 3 + 7
  return acc
|}

let clone_module i =
  let src =
    Printf.sprintf
      "func work_%d_a(s: Int) -> Int {%s}\nfunc work_%d_b(s: Int) -> Int {%s}\n"
      i repeats_body i repeats_body
  in
  (Printf.sprintf "clone%d" i, src)

let test_degenerate_shardings () =
  let check label srcs =
    let r1 = build_thin ~workers:1 srcs in
    let r4 = build_thin ~workers:4 srcs in
    Alcotest.(check string) (label ^ ": workers=1 = workers=4")
      (source r1.Pipeline.program) (source r4.Pipeline.program)
  in
  (* One module: a single shard, phases degenerate to the serial shape. *)
  check "single module" [ clone_module 0 ];
  (* An empty module among real ones: an empty shard must not perturb
     sharding, naming, or the merge. *)
  check "empty module"
    [ clone_module 0; ("hollow", ""); clone_module 1 ];
  (* All-identical modules (same bodies, per-module symbol names): every
     shard reports the same pattern hashes, the join sums their counts,
     and one host emits each body. *)
  check "all-identical modules" (List.init 4 clone_module);
  (* The identical-clone case must actually outline across the shards. *)
  let r = build_thin ~workers:2 (List.init 4 clone_module) in
  let hosted =
    List.filter (fun (f : Mfunc.t) -> f.Mfunc.is_outlined) r.Pipeline.program.Program.funcs
  in
  Alcotest.(check bool) "clone corpus produced outlined hosts" true
    (hosted <> [])

let () =
  Alcotest.run "thinwpo"
    [
      ( "summary",
        [
          Alcotest.test_case "serialization round-trip" `Quick
            test_summary_roundtrip;
          Alcotest.test_case "hash stability" `Quick test_hash_stability;
        ] );
      ( "decide",
        [
          Alcotest.test_case "tie-breaking" `Quick test_decide_tie_breaking;
          Alcotest.test_case "filters" `Quick test_decide_filters;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "byte-identical across workers" `Quick
            test_workers_byte_identical;
          Alcotest.test_case "thin tracks full WPO size" `Quick
            test_thin_tracks_full_wpo;
          Alcotest.test_case "degenerate shardings" `Quick
            test_degenerate_shardings;
        ] );
      ( "counting",
        [
          Alcotest.test_case "same decisions as materializing all" `Quick
            test_hash_first_same_decisions;
          Alcotest.test_case "window keys ignore the module" `Quick
            test_window_keys_module_independent;
          Alcotest.test_case "candidate keys match window keys" `Quick
            test_candidate_key_agreement;
          Alcotest.test_case "long pattern found by the probe" `Quick
            test_long_pattern_found_by_probe;
        ] );
    ]
