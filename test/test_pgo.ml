(* Tests for the profile-guided layout subsystem (lib/pgo): profile
   serialization, collection (determinism, golden profiles, conservation,
   runs cut short), the ordering strategies' permutation/hot-cold/
   differential properties, Linker.link ~order, and the caller-affinity
   anchor chasing they compete against. *)

open Machine

let parse text =
  match Asm_parser.parse_program text with
  | Ok p -> p
  | Error e -> Alcotest.fail ("parse error: " ^ e)

let run_exn ?config ?args ?order p ~entry =
  match Perfsim.Interp.run ?config ?args ?order ~entry p with
  | Ok r -> r
  | Error e -> Alcotest.fail ("exec error: " ^ Perfsim.Interp.error_to_string e)

(* A small program with a shared helper, a call chain and a never-executed
   function: enough shape for every strategy to disagree with program
   order while agreeing on semantics. *)
let sample_program () =
  parse
    {|
func main:
entry:
  stp fp, lr, [sp, #-16]!
  bl helper
  bl mid
  mov x0, #7
  ldp fp, lr, [sp], #16
  ret
func cold_never:
entry:
  mov x0, #99
  ret
func mid:
entry:
  stp fp, lr, [sp, #-16]!
  bl helper
  bl leaf
  ldp fp, lr, [sp], #16
  ret
func helper:
entry:
  mov x9, #1
  ret
func leaf:
entry:
  mov x10, #2
  ret
|}

let collect_sample () =
  let p = sample_program () in
  (p, fst (Pgo.Collect.collect ~workload:"sample" ~entries:[ "main" ] p))

(* --- Profile serialization ------------------------------------------------ *)

let test_profile_roundtrip () =
  let profile =
    Pgo.Profile.make ~workload:"w" ~entries:[ "main"; "span1" ]
      ~first_touch:[ "main"; "b"; "a" ]
      ~counts:[ ("b", 2); ("main", 1); ("a", 5) ]
      ~edges:[ (("main", "b"), 2); (("b", "a"), 5) ]
      ~blocks:[ (("main", "entry"), 1); (("b", "l1"), 2) ]
      ()
  in
  let s = Pgo.Profile.to_string profile in
  (match Pgo.Profile.of_string s with
  | Ok p' ->
    Alcotest.(check bool) "round-trip equal" true (Pgo.Profile.equal profile p');
    Alcotest.(check string) "canonical re-serialization" s
      (Pgo.Profile.to_string p')
  | Error e -> Alcotest.fail ("of_string: " ^ e));
  let ix = Pgo.Profile.index profile in
  Alcotest.(check int) "count a" 5 (Pgo.Profile.count ix "a");
  Alcotest.(check int) "edge b->a" 5
    (Pgo.Profile.edge_weight ix ~caller:"b" ~callee:"a");
  Alcotest.(check bool) "executed" true (Pgo.Profile.executed ix "b");
  Alcotest.(check bool) "not executed" false (Pgo.Profile.executed ix "z")

let test_profile_rejects_garbage () =
  let bad v =
    match Pgo.Profile.of_string v with
    | Ok _ -> Alcotest.fail "accepted malformed profile"
    | Error _ -> ()
  in
  bad "pgo-profile v99\nworkload w\n";
  bad "not-a-profile\n";
  bad "pgo-profile v1\ncount onlyonefield\n";
  bad "pgo-profile v1\nedge a b notanumber\n"

(* --- Collection ----------------------------------------------------------- *)

let test_collect_events () =
  let _, profile = collect_sample () in
  Alcotest.(check (list string))
    "first touch follows execution order"
    [ "main"; "helper"; "mid"; "leaf" ]
    profile.Pgo.Profile.first_touch;
  let ix = Pgo.Profile.index profile in
  (* helper entered from both main and mid. *)
  Alcotest.(check int) "helper entries" 2 (Pgo.Profile.count ix "helper");
  Alcotest.(check int) "main->helper" 1
    (Pgo.Profile.edge_weight ix ~caller:"main" ~callee:"helper");
  Alcotest.(check int) "mid->helper" 1
    (Pgo.Profile.edge_weight ix ~caller:"mid" ~callee:"helper");
  Alcotest.(check bool) "cold function untouched" false
    (Pgo.Profile.executed ix "cold_never")

let test_profile_determinism () =
  (* Same program + same workload twice: byte-identical serialization. *)
  let sources =
    Workload.Appgen.generate_sources Workload.Appgen.small
  in
  let res =
    match Pipeline.build_sources sources with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let entries = [ "main"; "span1"; "span2" ] in
  let args_for e = if e = "main" then [] else [ 1 ] in
  let collect () =
    Pgo.Profile.to_string
      (fst
         (Pgo.Collect.collect ~args_for ~workload:"small" ~entries
            res.Pipeline.program))
  in
  Alcotest.(check string) "byte-identical profiles" (collect ()) (collect ())

(* --- Golden profiles ---------------------------------------------------------

   Serialized profiles frozen from the collector that predated the
   interpreter's slot counters, which received one callback per block
   entry and per call.  The counting collector must reproduce them byte
   for byte.  The sample program and the small app (the file
   `sizeopt profile --app small` writes; CI compares the two) are kept
   whole, every profile also as an MD5 digest in profile_digests.txt. *)

let build_exn ?(config = Pipeline.default_config) sources =
  match Pipeline.build_sources ~config sources with
  | Ok r -> r.Pipeline.program
  | Error e -> Alcotest.fail e

(* What `sizeopt profile --app small` traces: main plus every span entry,
   spans called with 1, over a week-0 whole-program build at 5 rounds. *)
let small_app_profile () =
  let program =
    build_exn
      ~config:
        { Pipeline.default_config with
          mode = Pipeline.Whole_program; outline_rounds = 5 }
      (Workload.Appgen.generate_sources
         (Workload.Appgen.at_week Workload.Appgen.small 0))
  in
  fst
    (Pgo.Collect.collect
       ~args_for:(fun e -> if e = "main" then [] else [ 1 ])
       ~workload:"small"
       ~entries:("main" :: Workload.Appgen.span_entries)
       program)

(* Shapes the sample program lacks: a dynamic [blr] call, a tail call, an
   empty block sharing its start slot with the next, a never-taken path,
   and, once split, a cold chain in __text_cold. *)
let shapes_src =
  {|
extern print_i64
func main:
entry:
  stp fp, lr, [sp, #-16]!
  mov x19, #3
  fall loop
loop:
  adr x1, twice
  mov x0, x19
  blr x1
  bl print_i64
  sub x19, x19, #1
  cbnz x19, loop, empty
empty:
  fall done
done:
  bl tailer
  ldp fp, lr, [sp], #16
  ret
func twice:
entry:
  cbz x0, never, ok
never:
  mov x0, #77
  bl print_i64
  fall ok
ok:
  add x0, x0, x0
  ret
func tailer:
entry:
  mov x0, #4
  b twice
|}

(* Runs that stop early: a trap after a call, and a loop that only the
   step budget ends. *)
let trap_src =
  {|
extern swift_bounds_fail
func main:
entry:
  stp fp, lr, [sp, #-16]!
  bl leaf
  bl swift_bounds_fail
  ldp fp, lr, [sp], #16
  ret
func leaf:
entry:
  mov x0, #1
  ret
|}

let spin_src =
  {|
func main:
entry:
  fall spin
spin:
  bl leaf
  b spin
func leaf:
entry:
  ret
|}

(* The fuzz lattice's split-then-place budget. *)
let lattice_config =
  { Pgo.Collect.default_config with Perfsim.Interp.max_steps = 2_000_000 }

let lattice_profile p =
  fst
    (Pgo.Collect.collect ~config:lattice_config ~workload:"fuzz"
       ~entries:[ "main" ] p)

let crafted_profiles () =
  let shapes = parse shapes_src in
  let shapes_profile = lattice_profile shapes in
  [
    ("shapes", shapes_profile);
    ( "shapes-split",
      lattice_profile
        (Blocklayout.split_program ~profile:shapes_profile shapes) );
    ("trap", lattice_profile (parse trap_src));
    ("spin", lattice_profile (parse spin_src));
  ]

(* The corpus of `sizeopt fuzz --seed 1 --fuel 8`, programs 0-7: Swiftlet
   programs compiled with outlining off, every fourth a direct machine
   program.  None of them traps or runs out of budget; the crafted
   programs above cover those runs. *)
let fuzz_profiles () =
  List.filter_map
    (fun index ->
      let st = Random.State.make [| 1; index |] in
      let program =
        if index mod 4 = 3 then Some (Fuzz.Machgen.generate st ~fuel:8)
        else
          match
            Pipeline.build_sources
              ~config:{ Pipeline.default_config with outline_rounds = 0 }
              (Fuzz.Swiftgen.to_sources (Fuzz.Swiftgen.generate st ~fuel:8))
          with
          | Ok r -> Some r.Pipeline.program
          | Error _ -> None
      in
      Option.map
        (fun p -> (Printf.sprintf "fuzz-%d" index, lattice_profile p))
        program)
    (List.init 8 Fun.id)

(* The self-profile a default uber_rider build lays out from. *)
let rider_profile () =
  fst
    (Pgo.Collect.self_profile
       (build_exn (Workload.Appgen.generate_sources Workload.Appgen.uber_rider)))

let golden_profiles =
  lazy
    (("sample", snd (collect_sample ()))
    :: ("small", small_app_profile ())
    :: ("uber_rider", rider_profile ())
    :: crafted_profiles ()
    @ fuzz_profiles ())

let read_golden name =
  In_channel.with_open_bin (Filename.concat "golden" name) In_channel.input_all

let test_golden_profiles () =
  let digests =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ name; digest ] -> Some (name, digest)
        | _ -> None)
      (String.split_on_char '\n' (read_golden "profile_digests.txt"))
  in
  let profiles = Lazy.force golden_profiles in
  Alcotest.(check (list string))
    "the frozen cases" (List.map fst digests) (List.map fst profiles);
  List.iter
    (fun (name, p) ->
      let text = Pgo.Profile.to_string p in
      if name = "sample" || name = "small" then
        Alcotest.(check string)
          (name ^ " byte for byte")
          (read_golden ("profile_" ^ name ^ ".pgo"))
          text;
      Alcotest.(check string)
        (name ^ " digest") (List.assoc name digests)
        (Digest.to_hex (Digest.string text)))
    profiles

let check_conserved name p =
  match Fuzz.Lattice.profile_conserved p with
  | Ok () -> ()
  | Error e -> Alcotest.fail (name ^ ": " ^ e)

let test_conservation () =
  List.iter
    (fun (name, p) -> check_conserved name p)
    (Lazy.force golden_profiles);
  (* Not vacuous: each invariant rejects a profile that breaks it. *)
  let _, sample = collect_sample () in
  let rejects what (p : Pgo.Profile.t) =
    match Fuzz.Lattice.profile_conserved p with
    | Ok () -> Alcotest.fail ("accepted " ^ what)
    | Error _ -> ()
  in
  let remake ?(counts = sample.counts) ?(first_touch = sample.first_touch)
      ?(blocks = sample.blocks) () =
    Pgo.Profile.make ~workload:"sample" ~entries:sample.entries ~first_touch
      ~counts ~edges:sample.edges ~blocks ()
  in
  rejects "an extra entry count"
    (remake ~counts:(("leaf", 2) :: List.remove_assoc "leaf" sample.counts) ());
  rejects "an untouched function in the first-touch order"
    (remake ~first_touch:(sample.first_touch @ [ "cold_never" ]) ());
  rejects "a repeated first touch"
    (remake ~first_touch:(sample.first_touch @ [ "leaf" ]) ());
  rejects "a block of an unexecuted function"
    (remake ~blocks:((("cold_never", "entry"), 1) :: sample.blocks) ())

(* --- Early stops ----------------------------------------------------------- *)

(* A five-step budget ends the sample's run inside main's call to mid:
   main's stp and bl, helper's mov and ret, then the bl that enters mid.
   The profile is exactly that prefix, and the stop is reported. *)
let test_truncated_profile () =
  let config = { Pgo.Collect.default_config with Perfsim.Interp.max_steps = 5 } in
  let profile, stops =
    Pgo.Collect.collect ~config ~workload:"sample" ~entries:[ "main" ]
      (sample_program ())
  in
  Alcotest.(check string)
    "the executed prefix"
    "pgo-profile v2\n\
     workload sample\n\
     entry main\n\
     touch main\n\
     touch helper\n\
     touch mid\n\
     count helper 1\n\
     count main 1\n\
     count mid 1\n\
     edge main helper 1\n\
     edge main mid 1\n\
     block helper entry 1\n\
     block main entry 1\n"
    (Pgo.Profile.to_string profile);
  check_conserved "truncated sample" profile;
  match stops with
  | [ (("main", Perfsim.Interp.Step_limit_exceeded) as stop) ] ->
    let warning = Pgo.Collect.stop_warning ~budget:5 stop in
    Alcotest.(check string)
      "warning names the entry and the budget"
      "profile run of main stopped early (step limit exceeded; budget 5 \
       steps): layout uses the executed prefix"
      warning
  | _ -> Alcotest.fail "main's stop at the step limit was not reported"

(* The same report through `sizeopt build`: a main that loops past the
   self-profile's budget gets a warning naming it and the budget. *)
let test_build_warns_on_budget () =
  let dir = Filename.temp_dir "spin" "" in
  let errors = Filename.temp_file "spin" ".err" in
  Out_channel.with_open_text (Filename.concat dir "main.swl") (fun oc ->
      output_string oc
        "func main() -> Int {\n\
        \  var j = 10000000\n\
        \  while j > 0 {\n\
        \    j = j - 1\n\
        \  }\n\
        \  return 0\n\
         }\n");
  let code =
    Sys.command
      (Printf.sprintf
         "../bin/sizeopt.exe build %s --layout stitch > /dev/null 2> %s"
         (Filename.quote dir) (Filename.quote errors))
  in
  let stderr = In_channel.with_open_text errors In_channel.input_all in
  Sys.remove (Filename.concat dir "main.swl");
  Sys.rmdir dir;
  Sys.remove errors;
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check string) "warning"
    (Printf.sprintf
       "warning: profile run of main stopped early (step limit exceeded; \
        budget %d steps): layout uses the executed prefix\n"
       Pgo.Collect.self_profile_steps)
    stderr

(* --- Ordering strategies -------------------------------------------------- *)

let strategies : Pgo.Order.strategy list =
  [ `Order_file; `C3; `Balanced; `Bp_compress 0.5 ]

let test_orders_are_permutations () =
  let p, profile = collect_sample () in
  let names =
    List.sort String.compare
      (List.map (fun (f : Mfunc.t) -> f.Mfunc.name) p.Program.funcs)
  in
  List.iter
    (fun s ->
      let order = Pgo.Order.compute s profile p in
      Alcotest.(check (list string))
        (Pgo.Order.strategy_name s ^ " permutes all functions")
        names
        (List.sort String.compare order))
    strategies

let test_hot_cold_split () =
  let p, profile = collect_sample () in
  let ix = Pgo.Profile.index profile in
  List.iter
    (fun s ->
      let order = Pgo.Order.compute s profile p in
      let cold_pos =
        Option.get
          (List.find_index (fun n -> n = "cold_never") order)
      in
      List.iteri
        (fun i n ->
          if Pgo.Profile.executed ix n then
            Alcotest.(check bool)
              (Pgo.Order.strategy_name s ^ ": hot " ^ n ^ " before cold tail")
              true (i < cold_pos))
        order)
    strategies

let test_differential_across_strategies () =
  let p, profile = collect_sample () in
  let reference = run_exn p ~entry:"main" in
  let base_layout = Linker.link p in
  List.iter
    (fun s ->
      let order = Pgo.Order.compute s profile p in
      let r = run_exn ~order p ~entry:"main" in
      Alcotest.(check int)
        (Pgo.Order.strategy_name s ^ " exit value")
        reference.Perfsim.Interp.exit_value r.Perfsim.Interp.exit_value;
      Alcotest.(check (list int))
        (Pgo.Order.strategy_name s ^ " output")
        reference.output r.output;
      let layout = Linker.link ~order p in
      Alcotest.(check int)
        (Pgo.Order.strategy_name s ^ " text size unchanged")
        base_layout.Linker.text_size layout.Linker.text_size)
    strategies

let test_linker_explicit_order () =
  let p = sample_program () in
  let order = [ "leaf"; "main" ] in
  let l = Linker.link ~order p in
  let addr = Linker.address_of l in
  Alcotest.(check int) "leaf placed first" l.Linker.text_base (addr "leaf");
  Alcotest.(check bool) "main second" true (addr "main" > addr "leaf");
  (* Unknown names are ignored; unlisted functions follow in program order. *)
  let l2 = Linker.link ~order:[ "nosuchfunc"; "mid" ] p in
  Alcotest.(check int) "unknown skipped" l2.Linker.text_base
    (Linker.address_of l2 "mid");
  Alcotest.(check int) "text size invariant" l.Linker.text_size
    l2.Linker.text_size

(* --- bp-compress ----------------------------------------------------------- *)

let test_bp_compress_w0_is_balanced () =
  let p, profile = collect_sample () in
  Alcotest.(check (list string))
    "w=0 produces exactly the balanced order (sample)"
    (Pgo.Order.balanced profile p)
    (Pgo.Order.bp_compress ~w:0.0 profile p);
  Alcotest.(check (list string))
    "compute (`Bp_compress 0.) = compute `Balanced"
    (Pgo.Order.compute `Balanced profile p)
    (Pgo.Order.compute (`Bp_compress 0.0) profile p)

let test_bp_compress_w0_is_balanced_app () =
  (* The degeneration must hold on a program big enough for the bisection
     and local search to actually run, not just on toy inputs. *)
  let sources = Workload.Appgen.generate_sources Workload.Appgen.small in
  let res =
    match Pipeline.build_sources sources with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let program = res.Pipeline.program in
  let entries = [ "main"; "span1"; "span2" ] in
  let args_for e = if e = "main" then [] else [ 1 ] in
  let profile, _ =
    Pgo.Collect.collect ~args_for ~workload:"small" ~entries program
  in
  Alcotest.(check (list string))
    "w=0 produces exactly the balanced order (small app)"
    (Pgo.Order.balanced profile program)
    (Pgo.Order.bp_compress ~w:0.0 profile program)

(* --- the compressed-size estimator ----------------------------------------- *)

(* Deterministic pseudo-random content with no internal repeats longer
   than chance: what a function body looks like to the byte model. *)
let lcg_string seed len =
  let b = Buffer.create len in
  let s = ref seed in
  for _ = 1 to len do
    s := ((!s * 1103515245) + 12345) land 0x3fffffff;
    Buffer.add_char b (Char.chr (Char.code 'a' + (!s mod 26)))
  done;
  Buffer.contents b

let compressed ?window s =
  (Linker.Compress.estimate_stream ?window s).Linker.Compress.compressed_bytes

let test_adjacent_beats_interleaved () =
  (* Two distinct bodies, two copies each.  With a window holding one
     body but not two, adjacent clones are back-references and
     interleaved clones are out of reach. *)
  let len = 400 in
  let a = lcg_string 1 len and b = lcg_string 2 len in
  let window = len + (len / 2) in
  let adjacent = a ^ a ^ b ^ b and interleaved = a ^ b ^ a ^ b in
  Alcotest.(check bool)
    "identical adjacent bodies compress strictly better than interleaved"
    true
    (compressed ~window adjacent < compressed ~window interleaved);
  (* Same property through the program-level API: duplicate function
     bodies adjacent vs separated, pure reordering. *)
  let p =
    parse
      {|
func main:
entry:
  mov x0, #1
  add x0, x0, #2
  mul x1, x0, x0
  sub x2, x1, x0
  eor x3, x2, x1
  ret
func clone_a:
entry:
  mov x9, #77
  add x9, x9, #3
  mul x10, x9, x9
  orr x11, x10, x9
  ret
func filler:
entry:
  mov x4, #8
  lsl x5, x4, #2
  asr x6, x5, #1
  and x7, x6, x5
  ret
func clone_b:
entry:
  mov x9, #77
  add x9, x9, #3
  mul x10, x9, x9
  orr x11, x10, x9
  ret
|}
  in
  let body_len =
    String.length
      (Content.render
         (List.find
            (fun (f : Mfunc.t) -> f.Mfunc.name = "clone_a")
            p.Program.funcs))
  in
  let window = body_len + (body_len / 2) in
  let est order =
    (Linker.compress_estimate ~window ~order p)
      .Linker.Compress.compressed_bytes
  in
  Alcotest.(check bool)
    "clones adjacent beat clones separated" true
    (est [ "main"; "clone_a"; "clone_b"; "filler" ]
    < est [ "clone_a"; "main"; "filler"; "clone_b" ])

let test_estimate_monotone_in_window () =
  (* Repeats at several distances: every window step unlocks more of
     them, so the estimate must not grow as the window does. *)
  let x = lcg_string 3 300 in
  let s =
    x ^ lcg_string 4 100 ^ x ^ lcg_string 5 800 ^ x ^ lcg_string 6 2000 ^ x
  in
  let windows = [ 0; 64; 512; 1024; 4096; Linker.Compress.window_default ] in
  let sizes = List.map (fun w -> compressed ~window:w s) windows in
  let rec check_pairs = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "estimate monotone in window size" true (b <= a);
      check_pairs rest
    | _ -> ()
  in
  check_pairs sizes;
  (* The window-0 bound is the pure-literal encoding... *)
  Alcotest.(check int) "window 0 is the literal bound"
    (((String.length s * 9) + 7) / 8)
    (compressed ~window:0 s);
  (* ...and the widest window on this input strictly beats it. *)
  Alcotest.(check bool) "redundancy inside the window pays" true
    (compressed s < compressed ~window:0 s)

(* --- Caller-affinity anchor chasing (the strategy pgo competes with) ------ *)

let test_static_callers_chain () =
  let p =
    parse
      {|
func anchor:
entry:
  stp fp, lr, [sp, #-16]!
  bl out1
  bl out1
  ldp fp, lr, [sp], #16
  ret
func other:
entry:
  stp fp, lr, [sp, #-16]!
  bl out1
  ldp fp, lr, [sp], #16
  ret
func out1:
entry:
  stp fp, lr, [sp, #-16]!
  bl out2
  ldp fp, lr, [sp], #16
  ret
func out2:
entry:
  mov x9, #3
  ret
|}
  in
  let p =
    Program.replace_funcs p
      (List.map
         (fun (f : Mfunc.t) ->
           { f with Mfunc.is_outlined = String.length f.name >= 3
                                        && String.sub f.name 0 3 = "out" })
         p.Program.funcs)
  in
  let callers = Outcore.Layout.static_callers p in
  Alcotest.(check int) "anchor calls out1 twice" 2
    (List.assoc "anchor" (Hashtbl.find callers "out1"));
  Alcotest.(check int) "out1 calls out2 once" 1
    (List.assoc "out1" (Hashtbl.find callers "out2"));
  (* out2's only caller is outlined out1, whose home is anchor: the chain
     must chase through out1 to the concrete anchor. *)
  let opt = Outcore.Layout.optimize p in
  let names = List.map (fun (f : Mfunc.t) -> f.Mfunc.name) opt.Program.funcs in
  let pos n = Option.get (List.find_index (fun x -> x = n) names) in
  Alcotest.(check int) "out1 right after anchor" (pos "anchor" + 1) (pos "out1");
  Alcotest.(check int) "out2 follows the same anchor chain" (pos "out1" + 1)
    (pos "out2");
  Alcotest.(check bool) "non-outlined order preserved" true
    (pos "anchor" < pos "other")

let () =
  Alcotest.run "pgo"
    [
      ( "profile",
        [
          Alcotest.test_case "serialization round-trip" `Quick
            test_profile_roundtrip;
          Alcotest.test_case "rejects malformed input" `Quick
            test_profile_rejects_garbage;
        ] );
      ( "collect",
        [
          Alcotest.test_case "trace events -> profile" `Quick test_collect_events;
          Alcotest.test_case "deterministic serialized profile" `Slow
            test_profile_determinism;
          Alcotest.test_case "frozen golden profiles" `Slow
            test_golden_profiles;
          Alcotest.test_case "profiles are conserved" `Slow test_conservation;
          Alcotest.test_case "budget stop keeps the prefix" `Quick
            test_truncated_profile;
          Alcotest.test_case "build warns at the budget" `Slow
            test_build_warns_on_budget;
        ] );
      ( "order",
        [
          Alcotest.test_case "strategies are permutations" `Quick
            test_orders_are_permutations;
          Alcotest.test_case "hot/cold split" `Quick test_hot_cold_split;
          Alcotest.test_case "interp differential across strategies" `Quick
            test_differential_across_strategies;
          Alcotest.test_case "linker explicit order" `Quick
            test_linker_explicit_order;
        ] );
      ( "bp-compress",
        [
          Alcotest.test_case "w=0 degenerates to balanced" `Quick
            test_bp_compress_w0_is_balanced;
          Alcotest.test_case "w=0 degenerates to balanced (small app)" `Slow
            test_bp_compress_w0_is_balanced_app;
        ] );
      ( "compress",
        [
          Alcotest.test_case "adjacent clones beat interleaved" `Quick
            test_adjacent_beats_interleaved;
          Alcotest.test_case "estimate monotone in window" `Quick
            test_estimate_monotone_in_window;
        ] );
      ( "caller-affinity",
        [
          Alcotest.test_case "static_callers + anchor chasing" `Quick
            test_static_callers_chain;
        ] );
    ]
