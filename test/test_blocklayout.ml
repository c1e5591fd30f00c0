(* Block-granularity placement (lib/blocklayout): hot/cold splitting,
   branch elision/materialization, the split-then-link byte-semantics
   differential, symbolization inside a cold split, and stitch-order
   determinism across thin-WPO worker counts. *)

open Machine

let ok_exn = function Ok x -> x | Error e -> Alcotest.fail e

let parse text =
  match Asm_parser.parse_program text with
  | Ok p -> p
  | Error e -> Alcotest.fail ("parse error: " ^ e)

let run_exn ?config ?order p ~entry =
  match Perfsim.Interp.run ?config ?order ~entry p with
  | Ok r -> r
  | Error e -> Alcotest.fail ("exec error: " ^ Perfsim.Interp.error_to_string e)

let find_func (p : Program.t) name =
  List.find (fun (f : Mfunc.t) -> f.name = name) p.funcs

let find_block (f : Mfunc.t) label =
  List.find (fun (b : Block.t) -> b.label = label) f.blocks

(* main takes the hot path of a conditional (work(5) = 8, nonzero), so
   [coldpath] never executes; the pre-split source already carries an
   elided fallthrough (hotpath -> join) that the arrangement keeps
   adjacent.  The never-called [frozen] exercises whole-function
   tail placement. *)
let sample_src =
  {|
extern print_i64
func main:
entry:
  stp fp, lr, [sp, #-16]!
  mov x0, #5
  bl work
  cbz x0, coldpath, hotpath
coldpath:
  mov x0, #99
  bl print_i64
  b join
hotpath:
  bl print_i64
  fall join
join:
  ldp fp, lr, [sp], #16
  mov x0, #0
  ret
func work:
entry:
  add x0, x0, #3
  ret
func frozen:
entry:
  mov x0, #1
  ret
|}

let split_sample () =
  let p = parse sample_src in
  let profile, _ = Pgo.Collect.collect ~workload:"t" ~entries:[ "main" ] p in
  Alcotest.(check bool) "profile carries block counts" true
    (Pgo.Profile.has_block_counts (Pgo.Profile.index profile));
  (p, profile, Blocklayout.split_program ~profile p)

(* --- splitting and terminator rewrites -------------------------------------- *)

let test_split_classification () =
  let _, profile, split = split_sample () in
  let ix = Pgo.Profile.index profile in
  Alcotest.(check int) "coldpath never executed" 0
    (Pgo.Profile.block_count ix ~func:"main" ~label:"coldpath");
  Alcotest.(check bool) "hotpath executed" true
    (Pgo.Profile.block_count ix ~func:"main" ~label:"hotpath" > 0);
  let main = find_func split "main" in
  Alcotest.(check (option string)) "main split at coldpath"
    (Some "coldpath") main.Mfunc.cold_from;
  let hot, cold = Mfunc.partition main in
  Alcotest.(check (list string)) "hot chain"
    [ "entry"; "hotpath"; "join" ]
    (List.map (fun (b : Block.t) -> b.label) hot);
  Alcotest.(check (list string)) "cold chain" [ "coldpath" ]
    (List.map (fun (b : Block.t) -> b.label) cold);
  (* [frozen] never executed: left whole, sent to the tail by the order. *)
  Alcotest.(check bool) "frozen not split" false
    (Mfunc.is_split (find_func split "frozen"));
  match Program.validate split with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("split program invalid: " ^ e)

let test_materialization () =
  let _, _, split = split_sample () in
  let main = find_func split "main" in
  (* coldpath's branch to the hot [join] crosses the section boundary:
     it must stay a real branch. *)
  (match (find_block main "coldpath").term with
  | Block.B "join" -> ()
  | t ->
    Alcotest.failf "coldpath terminator: expected b join, got %s"
      (Format.asprintf "%a" Block.pp_terminator t));
  (* hotpath -> join stays adjacent in the hot chain: the source's
     fallthrough survives (and costs 0 bytes). *)
  (match (find_block main "hotpath").term with
  | Block.Fallthrough "join" -> ()
  | t ->
    Alcotest.failf "hotpath terminator: expected fall join, got %s"
      (Format.asprintf "%a" Block.pp_terminator t));
  (* The reverse direction: force [join] cold too, separating the
     hotpath -> join fallthrough; the splitter must materialize it. *)
  let p = parse sample_src in
  let f = find_func p "main" in
  let f' =
    Blocklayout.split_func
      ~cold:(fun l -> l = "coldpath" || l = "join")
      f
  in
  (match (find_block f' "hotpath").term with
  | Block.B "join" -> ()
  | t ->
    Alcotest.failf
      "separated fallthrough not materialized: expected b join, got %s"
      (Format.asprintf "%a" Block.pp_terminator t));
  (* coldpath -> join is now same-section and adjacent: elided. *)
  match (find_block f' "coldpath").term with
  | Block.Fallthrough "join" -> ()
  | t ->
    Alcotest.failf "adjacent cold branch not elided: got %s"
      (Format.asprintf "%a" Block.pp_terminator t)

let test_static_fallback () =
  let p =
    parse
      {|
extern swift_bounds_fail
func f:
entry:
  cbz x0, trap, ok
trap:
  bl swift_bounds_fail
  b ok
ok:
  ret
|}
  in
  let f = find_func p "f" in
  (* No block counts: the trap-seeded static heuristic applies. *)
  let cold = Blocklayout.classify f in
  Alcotest.(check bool) "trap block cold" true (cold "trap");
  Alcotest.(check bool) "entry never cold" false (cold "entry");
  Alcotest.(check bool) "ok reachable from entry, hot" false (cold "ok");
  let f' = Blocklayout.split_func ~cold f in
  Alcotest.(check (option string)) "split at trap" (Some "trap")
    f'.Mfunc.cold_from

(* --- the split-then-link byte-semantics differential ------------------------- *)

let test_differential () =
  let p, profile, split = split_sample () in
  let base = run_exn p ~entry:"main" in
  let order = Blocklayout.stitch_order ~profile split in
  let r = run_exn ~order split ~entry:"main" in
  Alcotest.(check int) "exit value" base.Perfsim.Interp.exit_value
    r.Perfsim.Interp.exit_value;
  Alcotest.(check (list int)) "output" base.Perfsim.Interp.output
    r.Perfsim.Interp.output;
  Alcotest.(check bool) "split never grows the code" true
    (Program.code_size_bytes split <= Program.code_size_bytes p);
  (* The order lists every hot chain plus the cold chain of each split
     function; the cold chains come last. *)
  Alcotest.(check bool) "order places main.cold" true
    (List.mem (Linker.cold_symbol "main") order);
  match List.rev order with
  | last :: _ ->
    Alcotest.(check string) "cold chains at the tail"
      (Linker.cold_symbol "main") last
  | [] -> Alcotest.fail "empty stitch order"

let test_link_and_symbolize () =
  let _, profile, split = split_sample () in
  let order = Blocklayout.stitch_order ~profile split in
  let layout = Linker.link ~order split in
  Alcotest.(check bool) "hot text strictly smaller than text" true
    (layout.Linker.hot_text_size < layout.Linker.text_size);
  let cold_addr = Linker.address_of layout (Linker.cold_symbol "main") in
  let hot_end =
    (* cold region starts after every hot chain *)
    Linker.address_of layout "main"
  in
  Alcotest.(check bool) "cold chain placed after hot main" true
    (cold_addr > hot_end);
  (* symbolize an address inside the cold split: nearest Text symbol is
     the .cold one, not the function's hot entry. *)
  (match Linker.symbolize layout (cold_addr + 4) with
  | Some s -> Alcotest.(check string) "inside main.cold" "main.cold+0x4" s
  | None -> Alcotest.fail "cold address did not symbolize");
  match Linker.symbolize layout (Linker.address_of layout "main") with
  | Some s -> Alcotest.(check string) "hot entry" "main+0x0" s
  | None -> Alcotest.fail "hot address did not symbolize"

(* --- determinism across worker counts ---------------------------------------- *)

let test_worker_determinism () =
  let srcs = Workload.Appgen.generate_sources Workload.Appgen.small in
  let build workers =
    ok_exn
      (Pipeline.build_sources
         ~config:
           {
             Pipeline.default_config with
             mode = Pipeline.Thin_wpo { workers };
             outlined_layout = `Stitch;
           }
         srcs)
  in
  let r1 = build 1 in
  let r2 = build 2 in
  let r4 = build 4 in
  let src r = Asm_printer.to_source r.Pipeline.program in
  Alcotest.(check string) "split program identical w1/w2" (src r1) (src r2);
  Alcotest.(check string) "split program identical w1/w4" (src r1) (src r4);
  Alcotest.(check bool) "stitch order present" true
    (r1.Pipeline.function_order <> None);
  Alcotest.(check bool) "stitch order identical across workers" true
    (r1.Pipeline.function_order = r2.Pipeline.function_order
    && r1.Pipeline.function_order = r4.Pipeline.function_order);
  Alcotest.(check bool) "some function was split" true
    (List.exists Mfunc.is_split r1.Pipeline.program.Program.funcs)

let () =
  Alcotest.run "blocklayout"
    [
      ( "split",
        [
          Alcotest.test_case "profile classification and chains" `Quick
            test_split_classification;
          Alcotest.test_case "materialization and elision" `Quick
            test_materialization;
          Alcotest.test_case "static trap-seeded fallback" `Quick
            test_static_fallback;
        ] );
      ( "differential",
        [
          Alcotest.test_case "split-then-link byte semantics" `Quick
            test_differential;
          Alcotest.test_case "link and symbolize cold split" `Quick
            test_link_and_symbolize;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "byte-identical across worker counts" `Slow
            test_worker_determinism;
        ] );
    ]
