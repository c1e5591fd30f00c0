(* The repository benchmark: source-to-image build time, image bytes and
   simulated run time on four seeded workloads, plus per-layer numbers from
   a separate traced run.  README.md in this directory documents the
   workloads, the metrics and how to run one workload with a given seed.

   The program is driven only through public entry points
   (Workload.Commits, Pipeline.build_sources / Pipeline.build,
   Swiftlet.Compile.compile_program, Serve.Server.handle,
   Perfsim.Interp.run, Eval.run, Link.link, Linker.compressed_size and the
   merge layer's [run] functions).  Nothing here adds tracing to lib/:
   sub-phases without a public entry are read from the reports the program
   already returns. *)

let now = Unix.gettimeofday

let json_string v =
  let b = Buffer.create (String.length v + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 || Char.code c >= 0x7f ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    v;
  Buffer.add_char b '"';
  Buffer.contents b

(* --- statistics ------------------------------------------------------------ *)

(* Linear interpolation between closest ranks. *)
let quantile q = function
  | [] -> 0.
  | l ->
    let a = Array.of_list (List.sort compare l) in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median l = quantile 0.5 l
let sum l = List.fold_left ( +. ) 0. l
let mean = function [] -> 0. | l -> sum l /. float_of_int (List.length l)
let sumi l = List.fold_left ( + ) 0 l
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* --- host-speed-normalised clock ------------------------------------------- *)

(* The end-to-end timings are taken on a shared host whose speed swings by
   tens of percent for minutes at a time, which no median over one run can
   remove.  So an operation is timed on the process CPU clock (summed over
   all domains; Linux leaves out the steal time the hypervisor gave our
   CPUs to other guests), and a fixed reference kernel, timed on the same
   clock right before and right after the operation, measures how much
   slower than idle the host runs at that moment: the mean of those two
   kernel times over [reference_s], the kernel's median time on an idle
   2-core Intel Xeon host.  The reported time is the operation's CPU time
   divided by that slowdown to the power [sensitivity]: in slow spells
   caused by other tenants, builds slowed about as the 1.75th power of the
   kernel's slowdown (fitted over forty runs of the four workloads), so
   dividing by the plain slowdown left most of the spell in.  Wall times
   are kept as facts, and the traced (per-layer) numbers are wall times. *)

let cpu = Sys.time
let reference_s = 0.00785
let sensitivity = 1.75

(* Half pointer chasing through a fixed 512 KiB random cycle (memory latency,
   like the compiler walking its heap), half integer hashing (pure
   compute).  It allocates nothing, so its time does not depend on the
   garbage the workload leaves for the collector. *)
let chase_len = 1 lsl 16

let chase =
  (* Sattolo's shuffle with a fixed LCG: one cycle through every slot *)
  let a = Array.init chase_len Fun.id in
  let x = ref 12345 in
  for i = chase_len - 1 downto 1 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x mod i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let reference_kernel () =
  let p = ref 0 in
  for _ = 1 to 200_000 do
    p := Array.unsafe_get chase !p
  done;
  let h = ref !p in
  for i = 1 to 2_000_000 do
    h := (!h lxor i) * 0x2545F491 land max_int;
    h := !h lxor (!h lsr 29)
  done;
  !h

(* The kernel's time with its array already in cache: the untimed first
   pass makes it independent of what the operation left in the caches. *)
let kernel_s () =
  ignore (Sys.opaque_identity (reference_kernel ()));
  let t0 = cpu () in
  ignore (Sys.opaque_identity (reference_kernel ()));
  cpu () -. t0

let last_kernel = ref None
let kernel_times = ref []

(* [f ()], its normalised seconds and its wall seconds. *)
let measure f =
  let before =
    match !last_kernel with Some k -> k | None -> kernel_s ()
  in
  let w0 = now () and c0 = cpu () in
  let r = f () in
  let c = cpu () -. c0 and w = now () -. w0 in
  let after = kernel_s () in
  last_kernel := Some after;
  kernel_times := after :: !kernel_times;
  let slowdown = (before +. after) /. 2. /. reference_s in
  (r, c /. (slowdown ** sensitivity), w)

(* --- spans ----------------------------------------------------------------- *)

(* Spans live in memory and are written out once, at the end of a traced
   run.  [Timed] spans are measured here around a public call; [Reported]
   spans are sub-phases the program timed itself (pipeline timings, pass
   steps, Outcore.Profile, Thinwpo.Engine.Report, serve b_phases), laid out
   back to back from their parent's start. *)
type origin = Timed | Reported

type span = {
  sp_id : int;
  sp_parent : int;  (* -1: root *)
  sp_name : string;
  sp_start : float;
  sp_stop : float;
  sp_origin : origin;
}

let spans : span list ref = ref []
let next_id = ref 0
let current = ref (-1)

let add_span ~parent ~origin name start stop =
  let id = !next_id in
  incr next_id;
  spans :=
    {
      sp_id = id;
      sp_parent = parent;
      sp_name = name;
      sp_start = start;
      sp_stop = stop;
      sp_origin = origin;
    }
    :: !spans;
  id

(* Time [f] as a child of the innermost open span; returns the result, the
   duration and the span id. *)
let timed name f =
  let parent = !current in
  let id = add_span ~parent ~origin:Timed name 0. 0. in
  current := id;
  let t0 = now () in
  let r = Fun.protect ~finally:(fun () -> current := parent) f in
  let t1 = now () in
  spans :=
    List.map
      (fun s -> if s.sp_id = id then { s with sp_start = t0; sp_stop = t1 } else s)
      !spans;
  (r, t1 -. t0, id)

(* Lay reported (name, seconds) phases out under [parent] from [start]. *)
let add_reported ~parent ~start phases =
  let t = ref start in
  List.map
    (fun (name, dt) ->
      let id = add_span ~parent ~origin:Reported name !t (!t +. dt) in
      t := !t +. dt;
      (id, !t -. dt))
    phases

let write_trace path =
  let oc = open_out path in
  let t0 =
    List.fold_left (fun a s -> Float.min a s.sp_start) infinity !spans
  in
  let ev s =
    Printf.sprintf
      "{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
       \"args\":{\"id\":%d,\"parent\":%d,\"origin\":\"%s\"}}"
      (json_string s.sp_name)
      ((s.sp_start -. t0) *. 1e6)
      ((s.sp_stop -. s.sp_start) *. 1e6)
      s.sp_id s.sp_parent
      (match s.sp_origin with Timed -> "timed" | Reported -> "reported")
  in
  output_string oc "{\"traceEvents\":[\n";
  output_string oc (String.concat ",\n" (List.rev_map ev !spans));
  output_string oc "\n]}\n";
  close_out oc

(* --- workloads ------------------------------------------------------------- *)

type kind =
  | Build of Pipeline.mode
  | Replay of { weeks : int; commits_per_week : int; retry_every : int }

type workload = {
  w_name : string;
  w_profile : Workload.Appgen.profile;
  w_spec : string;
  w_kind : kind;
}

let workloads =
  let open Workload.Appgen in
  [
    {
      w_name = "rider_wpo";
      w_profile = uber_rider;
      w_spec = "dce,outline(rounds=5)";
      w_kind = Build Pipeline.Whole_program;
    };
    {
      w_name = "thin_x2";
      w_profile = scaled ~mult:2 small;
      w_spec = "dce,thin-outline(workers=1,rounds=5)";
      w_kind = Build (Pipeline.Thin_wpo { workers = 1 });
    };
    {
      w_name = "serve_replay";
      w_profile = small;
      w_spec = "dce,outline(rounds=3)";
      w_kind = Replay { weeks = 5; commits_per_week = 20; retry_every = 5 };
    };
    {
      w_name = "rider_stitch";
      w_profile = uber_rider;
      w_spec = "dce,merge-functions,fmsa,global-merge,outline(rounds=5),stitch";
      w_kind = Build Pipeline.Whole_program;
    };
  ]

(* A build workload's input is the named app after one week of seeded
   commits (Workload.Commits: a few small functions appended to a few
   modules per commit).  The seed picks the edits, not the app, so the
   sizes compared across seeds describe one app. *)
let build_commits = 6

let config_of w =
  let mode =
    match w.w_kind with
    | Build mode -> mode
    | Replay _ -> Pipeline.Whole_program
  in
  Pipeline.config_of_passes ~base:{ Pipeline.default_config with mode } w.w_spec

(* --- failures -------------------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0
let problems = ref []

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      problems := msg :: !problems;
      prerr_endline ("perfbench: FAIL " ^ msg))
    fmt

(* --- images and deterministic counts --------------------------------------- *)

let image_of (r : Pipeline.result) =
  Machine.Asm_printer.to_source r.Pipeline.program
  ^
  match r.Pipeline.function_order with
  | None -> ""
  | Some order -> "\n; order\n" ^ String.concat "\n" order

let functions_created (r : Pipeline.result) =
  sumi
    (List.map
       (fun (s : Outcore.Outliner.round_stats) -> s.functions_created)
       r.Pipeline.outline_stats)

let thin_selected (r : Pipeline.result) =
  sumi
    (List.map
       (fun (rr : Thinwpo.Engine.Report.round) -> rr.rr_selected)
       (Thinwpo.Engine.Report.rounds r.Pipeline.thin_profile))

(* Counts that must repeat exactly across builds within one invocation. *)
let check_same what ~expect got =
  if expect <> got then
    fail "determinism: %s drifted across repeated builds (%d, then %d)" what
      expect got

(* --- oracle ---------------------------------------------------------------- *)

(* [main] of the linked image under Perfsim.Interp (default device and OS,
   the image's own function order), timed. *)
let run_image (r : Pipeline.result) =
  let res, dt, _ =
    timed "perfsim.interp" (fun () ->
        Perfsim.Interp.run ?order:r.Pipeline.function_order ~entry:"main"
          r.Pipeline.program)
  in
  match res with
  | Error e ->
    fail "interp: %s" (Perfsim.Interp.error_to_string e);
    None
  | Ok ir -> Some (ir, dt)

(* The independent oracle: [main] under Eval on the linked, unoptimised MIR
   of the same sources must print and return what the image does. *)
let oracle ~(config : Pipeline.config) sources (ir : Perfsim.Interp.result) =
  incr attempted;
  match Swiftlet.Compile.compile_program sources with
  | Error e -> fail "oracle front end: %s" e
  | Ok mods -> (
    match
      Link.link ~flag_semantics:config.Pipeline.flag_semantics
        ~data_order:config.Pipeline.data_order ~name:"whole" mods
    with
    | Error e -> fail "oracle link: %s" (Link.error_to_string e)
    | Ok m -> (
      match Eval.run ~entry:"main" m with
      | Error e -> fail "oracle eval: %s" (Eval.error_to_string e)
      | Ok ev ->
        if ev.Eval.exit_value <> ir.Perfsim.Interp.exit_value then
          fail "oracle: exit %d under Eval, %d under Interp" ev.Eval.exit_value
            ir.Perfsim.Interp.exit_value
        else if ev.Eval.output <> ir.Perfsim.Interp.output then
          fail "oracle: printed output differs between Eval and Interp"))

(* Run the image and check it against the oracle: the interp result and
   its wall time. *)
let run_and_check ~config sources r =
  Option.map
    (fun (ir, dt) ->
      oracle ~config sources ir;
      (ir, dt))
    (run_image r)

(* --- metrics --------------------------------------------------------------- *)

(* Measured values by metric name; units live in the catalogues below. *)
let metrics : (string * float) list ref = ref []
let metric name v = metrics := (name, v) :: !metrics
let facts : (string * string) list ref = ref []
let fact k v = facts := (k, v) :: !facts
let samples name n = fact ("samples." ^ name) (string_of_int n)

(* The process's peak resident set (VmHWM), in MB; Linux only. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.

let gc_delta f =
  let a = Gc.quick_stat () in
  let r = f () in
  let b = Gc.quick_stat () in
  ( r,
    ( b.Gc.minor_words -. a.Gc.minor_words,
      b.Gc.major_words -. a.Gc.major_words,
      float_of_int (b.Gc.major_collections - a.Gc.major_collections) ) )

(* One build's per-layer numbers, by metric name; absent means 0. *)
let value ls k = Option.value ~default:0. (List.assoc_opt k ls)

(* --- pipeline reports -> per-layer numbers --------------------------------- *)

let mir_pass_names =
  List.map (fun p -> p.Passman.p_name) (Passman.mir_passes ~keep:(fun _ -> false))

let merge_pass_names = [ "merge-functions"; "fmsa"; "global-merge" ]

(* Which layer each coarse pipeline phase belongs to. *)
let layer_of_phase = function
  | "llvm-link" -> Some "mir.link_s"
  | "opt" -> Some "mir.opt_s"
  | "llc" | "compile-modules" -> Some "codegen.llc_s"
  | "machine-outliner" -> Some "core.outline_s"
  | "pgo-collect" -> Some "pgo.collect_s"
  | "stitch-split" -> Some "blocklayout.split_s"
  | "stitch-order" -> Some "blocklayout.stitch_order_s"
  | "system-linker" -> Some "linker.link_s"
  | _ -> None

(* Seconds the (phase, seconds) list spends in [layer]'s phases. *)
let layer_time layer phases =
  sum
    (List.filter_map
       (fun (p, dt) -> if layer_of_phase p = Some layer then Some dt else None)
       phases)

let reported_layers (r : Pipeline.result) =
  let steps = r.Pipeline.pass_steps in
  let step_secs p =
    sum
      (List.filter_map
         (fun (s : Passman.step) ->
           if p s.Passman.st_pass then Some s.Passman.st_seconds else None)
         steps)
  in
  let mir_opt =
    match List.assoc_opt "opt" r.Pipeline.timings with
    | Some t -> t
    | None -> step_secs (fun p -> List.mem p mir_pass_names)
  in
  (* instructions after the last MIR pass of every compilation unit *)
  let instrs_after_opt =
    let last = Hashtbl.create 16 in
    List.iter
      (fun (s : Passman.step) ->
        if List.mem s.Passman.st_pass mir_pass_names then
          Hashtbl.replace last s.Passman.st_unit s.Passman.st_after)
      steps;
    Hashtbl.fold (fun _ v a -> a + v) last 0
  in
  let code_before_outline =
    match
      List.find_opt
        (fun (s : Passman.step) ->
          s.Passman.st_pass = "outline" || s.Passman.st_pass = "thin-outline")
        steps
    with
    | Some s -> s.Passman.st_before
    | None -> 0
  in
  let rounds = Outcore.Profile.rounds r.Pipeline.outline_profile in
  let rp f = sum (List.map f rounds) in
  let stats = r.Pipeline.outline_stats in
  let st f = float_of_int (sumi (List.map f stats)) in
  let thin = Thinwpo.Engine.Report.rounds r.Pipeline.thin_profile in
  let shards = List.concat_map (fun rr -> rr.Thinwpo.Engine.Report.rr_shards) thin in
  let shard_imbalance =
    mean
      (List.filter_map
         (fun (rr : Thinwpo.Engine.Report.round) ->
           let ts =
             List.map
               (fun (s : Thinwpo.Engine.Report.shard) -> s.rs_discover +. s.rs_rewrite)
               rr.rr_shards
           in
           let m = mean ts in
           if m > 0. then Some (List.fold_left Float.max 0. ts /. m) else None)
         thin)
  in
  let l k = layer_time k r.Pipeline.timings in
  [
    ("mir.link_s", l "mir.link_s");
    ("mir.opt_s", mir_opt);
    ("mir.instrs_after_opt", float_of_int instrs_after_opt);
    ("merge.run_s", step_secs (fun p -> List.mem p merge_pass_names));
    ("codegen.llc_s", l "codegen.llc_s");
    ("codegen.code_bytes_before_outline", float_of_int code_before_outline);
    ("core.outline_s", step_secs (fun p -> p = "outline"));
    ("core.seq_build_s", rp (fun r -> r.Outcore.Profile.rp_seq_build));
    ("core.tree_build_s", rp (fun r -> r.Outcore.Profile.rp_tree_build));
    ("core.enumerate_s", rp (fun r -> r.Outcore.Profile.rp_enumerate));
    ("core.score_s", rp (fun r -> r.Outcore.Profile.rp_score));
    ("core.rewrite_s", rp (fun r -> r.Outcore.Profile.rp_rewrite));
    ("core.occurrences_outlined", st (fun s -> s.Outcore.Outliner.sequences_outlined));
    ("core.functions_created", st (fun s -> s.Outcore.Outliner.functions_created));
    ("core.bytes_saved", st (fun s -> s.Outcore.Outliner.bytes_saved));
    ("thinwpo.discover_s", sum (List.map (fun s -> s.Thinwpo.Engine.Report.rs_discover) shards));
    ("thinwpo.decide_s", sum (List.map (fun rr -> rr.Thinwpo.Engine.Report.rr_decide) thin));
    ("thinwpo.rewrite_s", sum (List.map (fun s -> s.Thinwpo.Engine.Report.rs_rewrite) shards));
    ("thinwpo.shard_max_over_mean", shard_imbalance);
    ("thinwpo.selected", float_of_int (thin_selected r));
    ("linker.link_s", l "linker.link_s");
    ("linker.hot_text_bytes", float_of_int r.Pipeline.layout.Linker.hot_text_size);
    ("pgo.collect_s", l "pgo.collect_s");
    ("blocklayout.split_s", l "blocklayout.split_s");
    ("blocklayout.stitch_order_s", l "blocklayout.stitch_order_s");
  ]

(* Reported sub-phase spans of one pipeline build: coarse phases, with the
   outliner rounds' phase split and the thin rounds' shards beneath. *)
let add_pipeline_spans ~parent ~start (r : Pipeline.result) =
  let placed = add_reported ~parent ~start r.Pipeline.timings in
  List.iter2
    (fun (name, _) (id, t0) ->
      match name with
      | "opt" ->
        ignore
          (add_reported ~parent:id ~start:t0
             (List.filter_map
                (fun (st : Passman.step) ->
                  if List.mem st.Passman.st_pass mir_pass_names then
                    Some (st.Passman.st_pass, st.Passman.st_seconds)
                  else None)
                r.Pipeline.pass_steps))
      | "machine-outliner" ->
        ignore
          (List.fold_left
             (fun t (rp : Outcore.Profile.round_profile) ->
               let rid =
                 add_span ~parent:id ~origin:Reported
                   (Printf.sprintf "round %d" rp.rp_round)
                   t (t +. Outcore.Profile.round_total rp)
               in
               ignore
                 (add_reported ~parent:rid ~start:t
                    [
                      ("seq-build", rp.rp_seq_build);
                      ("tree-build", rp.rp_tree_build);
                      ("enumerate", rp.rp_enumerate);
                      ("score", rp.rp_score);
                      ("rewrite", rp.rp_rewrite);
                    ]);
               t +. Outcore.Profile.round_total rp)
             t0
             (Outcore.Profile.rounds r.Pipeline.outline_profile))
      | "system-linker-merge" ->
        ignore
          (List.fold_left
             (fun t (rr : Thinwpo.Engine.Report.round) ->
               let shards =
                 List.map
                   (fun (s : Thinwpo.Engine.Report.shard) ->
                     ("shard " ^ s.rs_module, s.rs_discover +. s.rs_rewrite))
                   rr.rr_shards
               in
               let phases = shards @ [ ("global-decision", rr.rr_decide) ] in
               let total = sum (List.map snd phases) in
               let rid =
                 add_span ~parent:id ~origin:Reported
                   (Printf.sprintf "thin round %d" rr.rr_round)
                   t (t +. total)
               in
               ignore (add_reported ~parent:rid ~start:t phases);
               t +. total)
             t0
             (Thinwpo.Engine.Report.rounds r.Pipeline.thin_profile))
      | _ -> ())
    r.Pipeline.timings placed

(* --- merge counts by composition ------------------------------------------- *)

(* The merge layer's counts are not in Pipeline.result, so the traced run
   replays the whole-program MIR stage itself through each pass's public
   entry point.  [compose_mir] returns the optimized module and the summed
   merge statistics; the caller checks the module prints byte-identically
   to what the pipeline's own MIR stage produced. *)
type merge_counts = { mc_merged : int; mc_rolled_back : int; mc_confirmed : int }

let compose_mir ~(config : Pipeline.config) mods =
  let keep (f : Ir.func) = List.mem f.Ir.name config.Pipeline.entry_points in
  match
    Link.link ~flag_semantics:config.Pipeline.flag_semantics
      ~data_order:config.Pipeline.data_order ~name:"whole" mods
  with
  | Error e -> Error (Link.error_to_string e)
  | Ok linked ->
    let counts = ref { mc_merged = 0; mc_rolled_back = 0; mc_confirmed = 0 } in
    let add merged rolled confirmed =
      counts :=
        {
          mc_merged = !counts.mc_merged + merged;
          mc_rolled_back = !counts.mc_rolled_back + rolled;
          mc_confirmed = !counts.mc_confirmed + confirmed;
        }
    in
    let apply m (sp : Passman.spec) =
      match sp.Passman.sp_name with
      | "dce" -> fst (Dce.run m)
      | "sil-outline" ->
        let min_occurrences = Passman.int_param sp "min" ~default:8 in
        fst (Swiftlet.Sil_outline.run ~min_occurrences m)
      | "merge-functions" ->
        let m, s = Merge_functions.run ~keep m in
        add s.Merge_functions.funcs_merged 0 0;
        m
      | "fmsa" ->
        let m, s = Fmsa.run ~keep m in
        add s.Fmsa.funcs_merged 0 0;
        m
      | "global-merge" ->
        let min_instrs = Passman.int_param sp "min" ~default:4 in
        let max_holes = Passman.int_param sp "max-holes" ~default:6 in
        let m, s = Global_merge.run_module ~min_instrs ~max_holes ~keep m in
        add s.Global_merge.funcs_merged s.Global_merge.rolled_back
          s.Global_merge.funcs_merged;
        m
      | other -> failwith ("compose_mir: no public entry for " ^ other)
    in
    let specs =
      List.filter
        (fun sp -> List.mem sp.Passman.sp_name mir_pass_names)
        (Pipeline.spec_of_config config)
    in
    let optimized = List.fold_left apply linked specs in
    Ok (optimized, !counts)

let uses_merge (config : Pipeline.config) =
  config.Pipeline.mode = Pipeline.Whole_program
  && List.exists
       (fun sp -> List.mem sp.Passman.sp_name merge_pass_names)
       (Pipeline.spec_of_config config)

(* --- build workloads ------------------------------------------------------- *)

type build_obs = {
  b_seconds : float;  (* normalised *)
  b_wall : float;
  b_result : Pipeline.result;
}

let build_once ~config sources =
  incr attempted;
  let r, dt, wall = measure (fun () -> Pipeline.build_sources ~config sources) in
  match r with
  | Ok r -> Some { b_seconds = dt; b_wall = wall; b_result = r }
  | Error e ->
    fail "build: %s" e;
    None

(* Every build must reproduce the reference image and counts exactly. *)
let check_build ~ref_image ~(reference : Pipeline.result) (r : Pipeline.result) =
  if not (String.equal (image_of r) ref_image) then
    fail "determinism: image differs from the first build of this run";
  check_same "image_bytes" ~expect:reference.Pipeline.binary_size
    r.Pipeline.binary_size;
  check_same "text_bytes" ~expect:reference.Pipeline.code_size r.Pipeline.code_size;
  check_same "core.functions_created" ~expect:(functions_created reference)
    (functions_created r);
  check_same "thinwpo.selected" ~expect:(thin_selected reference)
    (thin_selected r)

let check_run_facts ~(expect : Perfsim.Interp.result) (got : Perfsim.Interp.result) =
  check_same "run_cycles" ~expect:expect.cycles got.cycles;
  check_same "run_icache_misses" ~expect:expect.icache_misses got.icache_misses;
  check_same "cold_start_pages" ~expect:expect.cold_start_pages got.cold_start_pages

(* The run metrics of the checked image: end-to-end counts in the timed
   run, the interpreter's own speed in the traced run. *)
let emit_run ~trace ((ir : Perfsim.Interp.result), dt) =
  if trace then begin
    metric "perfsim.interp_s" dt;
    metric "perfsim.steps_per_s" (float_of_int ir.steps /. dt)
  end
  else begin
    metric "run_cycles" (float_of_int ir.cycles);
    metric "run_icache_misses" (float_of_int ir.icache_misses);
    metric "cold_start_pages" (float_of_int ir.cold_start_pages)
  end

(* One traced build: Pipeline.build_sources composed from its two public
   halves, so the front end gets its own span, with the pipeline's reported
   phases beneath; then the compress estimate and, where the spec merges,
   the merge counts.  Returns the per-layer numbers of this build. *)
let traced_build ~config ~pipeline_mir ~check sources =
  incr attempted;
  let (res, (minor, major, majc)), dt, _ =
    timed "build" (fun () ->
        gc_delta (fun () ->
            let mods, t_fe, _ =
              timed "swiftlet.compile" (fun () ->
                  Swiftlet.Compile.compile_program sources)
            in
            match mods with
            | Error e -> Error e
            | Ok mods ->
              let r, _, pid =
                timed "pipeline.build" (fun () -> Pipeline.build ~config mods)
              in
              Result.map (fun r -> (mods, r, t_fe, pid)) r))
  in
  match res with
  | Error e ->
    fail "traced build: %s" e;
    None
  | Ok (mods, r, t_fe, pid) ->
    check r;
    let pstart = (List.find (fun s -> s.sp_id = pid) !spans).sp_start in
    add_pipeline_spans ~parent:pid ~start:pstart r;
    let _, t_z, _ =
      timed "linker.compress" (fun () -> Linker.compressed_size r.Pipeline.layout)
    in
    let merged, rolled, confirm =
      match pipeline_mir with
      | None -> (0, 0, 0.)
      | Some expected -> (
        let composed, _, _ =
          timed "merge.compose" (fun () -> compose_mir ~config mods)
        in
        match composed with
        | Error e ->
          fail "merge composition: %s" e;
          (0, 0, 0.)
        | Ok (m, c) ->
          if not (String.equal (Passman.mir_stage.Passman.stage_print m) expected)
          then
            fail
              "merge composition: composed MIR is not byte-identical to the \
               pipeline's";
          ( c.mc_merged,
            c.mc_rolled_back,
            ratio c.mc_confirmed (c.mc_confirmed + c.mc_rolled_back) ))
    in
    let covered = t_fe +. sum (List.map snd r.Pipeline.timings) in
    Some
      (reported_layers r
      @ [
          ("build_s", dt);
          ("swiftlet.compile_s", t_fe);
          ("swiftlet.modules_compiled", float_of_int (List.length mods));
          ("merge.funcs_merged", float_of_int merged);
          ("merge.rolled_back", float_of_int rolled);
          ("merge.confirm_ratio", confirm);
          ("linker.compress_s", t_z);
          ("pipeline.other_s", dt -. covered);
          ("trace.layer_coverage", covered /. dt);
          ("gc.minor_words", minor);
          ("gc.major_words", major);
          ("gc.major_collections", majc);
        ])

(* The pipeline's MIR after its last MIR pass, printed by an extra build
   with [print_after]; the merge-composition check compares against it. *)
let pipeline_mir ~config sources =
  let last =
    List.fold_left
      (fun acc sp ->
        if List.mem sp.Passman.sp_name mir_pass_names then sp.Passman.sp_name
        else acc)
      "" (Pipeline.spec_of_config config)
  in
  let text = ref "" in
  incr attempted;
  match
    Pipeline.build_sources
      ~dump:(fun _ t -> text := t)
      ~config:{ config with Pipeline.print_after = `Passes [ last ] }
      sources
  with
  | Ok _ -> Some !text
  | Error e ->
    fail "build: %s" e;
    None

let run_build_workload w ~seconds ~trace ~resample sources =
  let config =
    match config_of w with Ok c -> c | Error e -> failwith ("spec: " ^ e)
  in
  fact "workers"
    (match config.Pipeline.mode with
    | Pipeline.Thin_wpo { workers } -> string_of_int workers
    | _ -> "1");
  let pipeline_mir =
    if trace && uses_merge config then pipeline_mir ~config sources else None
  in
  (* The first build is timed like the others and is the run's reference:
     every later build must reproduce its image and counts. *)
  let reference = ref None in
  let last = ref None in
  let check r =
    last := Some r;
    match !reference with
    | None -> reference := Some (r, image_of r)
    | Some (r0, image0) -> check_build ~ref_image:image0 ~reference:r0 r
  in
  let rss = ref 0. in
  let untraced = ref [] and untraced_wall = ref [] and traced = ref [] in
  let t_start = now () in
  let k = ref 0 in
  (* traced runs alternate untraced and traced builds *)
  while
    now () -. t_start < float_of_int seconds
    || !untraced = []
    || (trace && !traced = [])
  do
    if trace && !k mod 2 = 1 then
      Option.iter
        (fun ls -> traced := ls :: !traced)
        (traced_build ~config ~pipeline_mir ~check sources)
    else
      Option.iter
        (fun b ->
          (* peak memory through set-up and the first three builds: the
             heap grows over the first builds and levels off by the third,
             and a fixed count keeps it from growing with the number of
             builds a run happens to fit *)
          if List.length !untraced < 3 then rss := peak_rss_mb ();
          check b.b_result;
          untraced := b.b_seconds :: !untraced;
          untraced_wall := b.b_wall :: !untraced_wall)
        (build_once ~config sources);
    incr k;
    resample ()
  done;
  match !reference with
  | None -> ()
  | Some (reference, _) -> (
    let download = Linker.compressed_size reference.Pipeline.layout in
    let run = run_and_check ~config sources reference in
    (* Every build reproduced the reference image, which fixes its counts;
       the traced run also recomputes them on a repeated build. *)
    (match !last with
    | Some r when trace && r != reference ->
      check_same "download_bytes" ~expect:download
        (Linker.compressed_size r.Pipeline.layout);
      Option.iter
        (fun (b, _) -> Option.iter (fun (a, _) -> check_run_facts ~expect:a b) run)
        (run_and_check ~config sources r)
    | _ -> ());
    Option.iter (emit_run ~trace) run;
    let lat = List.rev !untraced in
    let n = List.length lat in
    let wall = median !untraced_wall in
    if not trace then begin
      fact "build_wall_s" (Printf.sprintf "%.6f" wall);
      metric "build_s" (median lat);
      metric "request_p50_s" (median lat);
      metric "request_p90_s" (quantile 0.9 lat);
      metric "requests_per_s" (float_of_int n /. sum lat);
      List.iter (fun k -> samples k n)
        [ "build_s"; "request_p50_s"; "request_p90_s"; "requests_per_s" ];
      metric "image_bytes" (float_of_int reference.Pipeline.binary_size);
      metric "text_bytes" (float_of_int reference.Pipeline.code_size);
      metric "download_bytes" (float_of_int download);
      metric "peak_rss_mb" !rss
    end
    else begin
      let tr = List.rev !traced in
      fact "samples.traced_builds" (string_of_int (List.length tr));
      fact "samples.untraced_builds" (string_of_int n);
      let per k = mean (List.map (fun ls -> value ls k) tr) in
      List.iter
        (fun (k, _) -> if k <> "build_s" then metric k (per k))
        (match tr with [] -> [] | ls :: _ -> ls);
      (* merge counts must repeat exactly across traced builds *)
      (match List.map (fun ls -> value ls "merge.funcs_merged") tr with
      | m :: rest ->
        List.iter
          (fun m' ->
            check_same "merge.funcs_merged" ~expect:(int_of_float m)
              (int_of_float m'))
          rest
      | [] -> ());
      let traced_build = median (List.map (fun ls -> value ls "build_s") tr) in
      metric "trace.overhead_s" (traced_build -. wall);
      fact "trace.traced_build_s" (Printf.sprintf "%.6f" traced_build);
      fact "trace.untraced_build_s" (Printf.sprintf "%.6f" wall)
    end)

(* --- serve replay ---------------------------------------------------------- *)

type req_obs = {
  q_seconds : float;  (* normalised in untraced passes, wall in traced ones *)
  q_wall : float;
  q_built : Serve.Protocol.built option;
  q_gc : float * float * float;  (* minor words, major words, major GCs *)
}

(* Traced passes time requests on the wall clock alone, so that no
   reference kernel runs inside a request's span. *)
let wall_clock f =
  let t0 = now () in
  let r = f () in
  let w = now () -. t0 in
  (r, w, w)

let serve_request ~clock server ~app ~spec (c : Workload.Commits.commit) =
  let req =
    Serve.Protocol.print_request
      (Serve.Protocol.Build
         {
           br_id = Printf.sprintf "c%d" c.Workload.Commits.c_index;
           br_app = app;
           br_mode = "wp";
           br_workers = 1;
           br_passes = Some spec;
           br_want_image = true;
           br_source = Serve.Protocol.Inline c.Workload.Commits.c_sources;
         })
  in
  incr attempted;
  let (payload, _), dt, wall = clock (fun () -> Serve.Server.handle server req) in
  let q built = { q_seconds = dt; q_wall = wall; q_built = built; q_gc = (0., 0., 0.) } in
  match Serve.Protocol.parse_response payload with
  | Ok (Serve.Protocol.Built b) -> q (Some b)
  | Ok (Serve.Protocol.Error_reply { e_message; _ }) ->
    fail "serve commit %d: %s" c.c_index e_message;
    q None
  | Ok _ ->
    fail "serve commit %d: unexpected response" c.c_index;
    q None
  | Error e ->
    fail "serve commit %d: unparsable response: %s" c.c_index e;
    q None

let server_counters server =
  match
    Serve.Protocol.parse_response
      (fst (Serve.Server.handle server (Serve.Protocol.print_request Serve.Protocol.Stats)))
  with
  | Ok (Serve.Protocol.Stats_reply c) -> Some c
  | _ ->
    fail "serve: stats request failed";
    None

(* One pass: the whole stream, in a closed loop with one client, through a
   fresh in-process server.  Traced passes add a span per request with the
   reply's own b_phases beneath it. *)
let serve_pass ~trace ~app ~spec commits =
  let server = Serve.Server.create () in
  let obs =
    List.map
      (fun c ->
        if trace then begin
          let (q, gc), _, id =
            timed "serve.handle" (fun () ->
                gc_delta (fun () ->
                    serve_request ~clock:wall_clock server ~app ~spec c))
          in
          let q = { q with q_gc = gc } in
          (match q.q_built with
          | Some b ->
            let start = (List.find (fun s -> s.sp_id = id) !spans).sp_start in
            ignore (add_reported ~parent:id ~start b.Serve.Protocol.b_phases)
          | None -> ());
          q
        end
        else serve_request ~clock:measure server ~app ~spec c)
      commits
  in
  (obs, server_counters server)

let run_serve_workload w ~seconds ~trace ~resample commits =
  let config =
    match config_of w with Ok c -> c | Error e -> failwith ("spec: " ^ e)
  in
  fact "workers" "1";
  fact "commits" (string_of_int (List.length commits));
  let app = w.w_profile.Workload.Appgen.app_name in
  let passes = ref [] in
  let rss = ref 0. in
  let t_start = now () in
  let k = ref 0 in
  while
    now () -. t_start < float_of_int seconds
    || List.length !passes < 1
    || (trace && List.length !passes < 2)
  do
    (* traced runs alternate untraced and traced passes *)
    let tr = trace && !k mod 2 = 1 in
    let obs, counters = serve_pass ~trace:tr ~app ~spec:w.w_spec commits in
    let obs =
      match List.rev !passes with
      | [] ->
        (* peak memory through set-up and one pass *)
        rss := peak_rss_mb ();
        obs
      | (_, (first, _)) :: _ ->
        (* later passes must serve the first pass's images; only the
           first pass keeps them, for the from-scratch comparison *)
        List.map2
          (fun q f ->
            match (q.q_built, f.q_built) with
            | Some b, Some fb ->
              if b.Serve.Protocol.b_image <> fb.Serve.Protocol.b_image then
                fail "determinism: served image differs between passes";
              { q with q_built = Some { b with b_image = None } }
            | _ -> q)
          obs first
    in
    passes := (tr, (obs, counters)) :: !passes;
    for _ = 1 to 5 do resample () done;
    incr k
  done;
  let rss = !rss in
  let passes = List.rev !passes in
  (* Oracle: every served image is byte-identical to a from-scratch build
     of its commit; equal sources are built once. *)
  let scratch = Hashtbl.create 64 in
  let scratch_of (c : Workload.Commits.commit) =
    let key = Digest.string (Marshal.to_string c.c_sources []) in
    match Hashtbl.find_opt scratch key with
    | Some r -> r
    | None ->
      let r = Pipeline.build_sources ~config c.c_sources in
      Hashtbl.replace scratch key r;
      r
  in
  List.iter
    (fun (_, (obs, _)) ->
      List.iter2
        (fun (c : Workload.Commits.commit) q ->
          match q.q_built with
          | None | Some { Serve.Protocol.b_image = None; _ } -> ()
          | Some b -> (
            incr attempted;
            match scratch_of c with
            | Error e -> fail "scratch build of commit %d: %s" c.c_index e
            | Ok r ->
              if
                b.Serve.Protocol.b_image
                <> Some (Machine.Asm_printer.to_source r.Pipeline.program)
              then
                fail "serve: commit %d image differs from a from-scratch build"
                  c.c_index))
        commits obs)
    passes;
  let final = List.nth commits (List.length commits - 1) in
  let final_scratch = scratch_of final in
  let untraced = List.filter (fun (tr, _) -> not tr) passes in
  let traced = List.filter (fun (tr, _) -> tr) passes in
  let lat_by f ps = List.concat_map (fun (_, (obs, _)) -> List.map f obs) ps in
  let lat = lat_by (fun q -> q.q_seconds) and wall_lat = lat_by (fun q -> q.q_wall) in
  (* the final commit's reply must repeat exactly across passes *)
  let finals =
    List.filter_map
      (fun (_, (obs, _)) -> (List.nth obs (List.length obs - 1)).q_built)
      passes
  in
  (match finals with
  | f :: rest ->
    List.iter
      (fun (g : Serve.Protocol.built) ->
        check_same "image_bytes" ~expect:f.b_binary_size g.b_binary_size;
        check_same "text_bytes" ~expect:f.b_code_size g.b_code_size)
      rest
  | [] -> fail "serve: final commit never built");
  match final_scratch with
  | Error e -> fail "scratch build of the final commit: %s" e
  | Ok r ->
    let download = Linker.compressed_size r.Pipeline.layout in
    Option.iter (emit_run ~trace) (run_and_check ~config final.c_sources r);
    if not trace then begin
      let l = lat untraced in
      let n = List.length l in
      let misses =
        List.concat_map
          (fun (_, (obs, _)) ->
            List.filter_map
              (fun q ->
                match q.q_built with
                | Some b when not b.Serve.Protocol.b_cache_hit -> Some q.q_seconds
                | _ -> None)
              obs)
          untraced
      in
      metric "build_s" (median misses);
      samples "build_s" (List.length misses);
      metric "request_p50_s" (median l);
      metric "request_p90_s" (quantile 0.9 l);
      (* one client in a closed loop: requests per second of handling *)
      metric "requests_per_s" (float_of_int n /. sum l);
      fact "request_p50_wall_s"
        (Printf.sprintf "%.6f" (median (wall_lat untraced)));
      List.iter (fun k -> samples k n) [ "request_p50_s"; "request_p90_s"; "requests_per_s" ];
      (match finals with
      | f :: _ ->
        metric "image_bytes" (float_of_int f.b_binary_size);
        metric "text_bytes" (float_of_int f.b_code_size)
      | [] -> ());
      metric "download_bytes" (float_of_int download);
      metric "peak_rss_mb" rss
    end
    else begin
      let tobs = List.concat_map (fun (_, (obs, _)) -> obs) traced in
      let per f = mean (List.map f tobs) in
      let phase_sum q =
        match q.q_built with
        | Some b -> sum (List.map snd b.Serve.Protocol.b_phases)
        | None -> 0.
      in
      let phase name q =
        match q.q_built with
        | Some b -> layer_time name b.Serve.Protocol.b_phases
        | None -> 0.
      in
      List.iter
        (fun k -> metric k (per (phase k)))
        [ "mir.link_s"; "mir.opt_s"; "codegen.llc_s"; "core.outline_s"; "linker.link_s" ];
      let self = per (fun q -> q.q_seconds -. phase_sum q) in
      metric "serve.handle_self_s" self;
      metric "pipeline.other_s" self;
      metric "trace.layer_coverage" (per phase_sum /. per (fun q -> q.q_seconds));
      let counters = List.filter_map (fun (_, (_, c)) -> c) traced in
      metric "serve.result_cache_hit_ratio"
        (mean
           (List.map
              (fun (c : Serve.Protocol.counters) -> ratio c.c_hits (c.c_hits + c.c_misses))
              counters));
      metric "serve.evictions"
        (mean (List.map (fun (c : Serve.Protocol.counters) -> float_of_int c.c_evictions) counters));
      metric "trace.overhead_s" (median (wall_lat traced) -. median (wall_lat untraced));
      fact "samples.traced_requests" (string_of_int (List.length tobs));
      fact "samples.untraced_requests" (string_of_int (List.length (lat untraced)));
      let gc f = per (fun q -> f q.q_gc) in
      metric "gc.minor_words" (gc (fun (a, _, _) -> a));
      metric "gc.major_words" (gc (fun (_, b, _) -> b));
      metric "gc.major_collections" (gc (fun (_, _, c) -> c))
    end

(* --- per-layer metric catalogue -------------------------------------------- *)

(* Every per-layer metric, its unit and whether the benchmark timed it
   around a public call ("timed"), read it from a report the program
   returns ("reported") or derived it from both ("derived").  Layers a
   workload bypasses report 0. *)
let per_layer =
  [
    ("swiftlet.compile_s", "s", "timed");
    ("swiftlet.modules_compiled", "count", "timed");
    ("mir.link_s", "s", "reported");
    ("mir.opt_s", "s", "reported");
    ("mir.instrs_after_opt", "count", "reported");
    ("merge.run_s", "s", "reported");
    ("merge.funcs_merged", "count", "timed");
    ("merge.rolled_back", "count", "timed");
    ("merge.confirm_ratio", "ratio", "timed");
    ("codegen.llc_s", "s", "reported");
    ("codegen.code_bytes_before_outline", "bytes", "reported");
    ("core.outline_s", "s", "reported");
    ("core.seq_build_s", "s", "reported");
    ("core.tree_build_s", "s", "reported");
    ("core.enumerate_s", "s", "reported");
    ("core.score_s", "s", "reported");
    ("core.rewrite_s", "s", "reported");
    ("core.occurrences_outlined", "count", "reported");
    ("core.functions_created", "count", "reported");
    ("core.bytes_saved", "bytes", "reported");
    ("thinwpo.discover_s", "s", "reported");
    ("thinwpo.decide_s", "s", "reported");
    ("thinwpo.rewrite_s", "s", "reported");
    ("thinwpo.shard_max_over_mean", "ratio", "reported");
    ("thinwpo.selected", "count", "reported");
    ("linker.link_s", "s", "reported");
    ("linker.compress_s", "s", "timed");
    ("linker.hot_text_bytes", "bytes", "reported");
    ("pgo.collect_s", "s", "reported");
    ("blocklayout.split_s", "s", "reported");
    ("blocklayout.stitch_order_s", "s", "reported");
    ("perfsim.interp_s", "s", "timed");
    ("perfsim.steps_per_s", "1/s", "timed");
    ("serve.handle_self_s", "s", "derived");
    ("serve.result_cache_hit_ratio", "ratio", "reported");
    ("serve.evictions", "count", "reported");
    ("pipeline.other_s", "s", "derived");
    ("gc.minor_words", "words", "timed");
    ("gc.major_words", "words", "timed");
    ("gc.major_collections", "count", "timed");
    ("trace.overhead_s", "s", "derived");
    ("trace.layer_coverage", "ratio", "derived");
  ]

let end_to_end =
  [
    ("setup_s", "s");
    ("build_s", "s");
    ("request_p50_s", "s");
    ("request_p90_s", "s");
    ("requests_per_s", "1/s");
    ("image_bytes", "bytes");
    ("text_bytes", "bytes");
    ("download_bytes", "bytes");
    ("peak_rss_mb", "MB");
    ("run_cycles", "cycles");
    ("run_icache_misses", "misses");
    ("cold_start_pages", "pages");
  ]

(* --- main ------------------------------------------------------------------ *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let out = ref "perfbench/out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measurement time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--out", Arg.Set_string out, "DIR where the report and trace go");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.w_name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline
        ("perfbench: unknown workload " ^ !workload ^ "; one of "
        ^ String.concat ", " (List.map (fun w -> w.w_name) workloads));
      exit 2
  in
  let trace = !trace = 1 in
  let seed = !seed in
  fact "workload" w.w_name;
  fact "seed" (string_of_int seed);
  fact "spec" w.w_spec;
  fact "app" w.w_profile.Workload.Appgen.app_name;
  fact "host_cores" (string_of_int (Domain.recommended_domain_count ()));
  fact "ocaml_version" Sys.ocaml_version;
  fact "trace" (if trace then "1" else "0");
  (* Set-up: generate the workload's inputs (and, for the replay, create the
     server a pass starts from) several times; report the median. *)
  let setup () =
    match w.w_kind with
    | Build _ ->
      let cs =
        Workload.Commits.stream ~seed ~retry_every:0
          ~commits_per_week:build_commits ~profile:w.w_profile ~weeks:1 ()
      in
      `Sources (List.nth cs (List.length cs - 1)).Workload.Commits.c_sources
    | Replay { weeks; commits_per_week; retry_every } ->
      ignore (Serve.Server.create ());
      `Commits
        (Workload.Commits.stream ~seed ~retry_every ~commits_per_week
           ~profile:w.w_profile ~weeks ())
  in
  let setup_times = ref [] in
  (* Each set-up starts from a collected heap, so its time does not depend
     on the garbage the builds before it left behind. *)
  let timed_setup () =
    Gc.full_major ();
    let x, dt, _ = measure setup in
    setup_times := dt :: !setup_times;
    x
  in
  let input = timed_setup () in
  for _ = 1 to 4 do ignore (timed_setup ()) done;
  (* More set-ups between the timed builds (outside their timing), so the
     median samples the whole run rather than its first few milliseconds. *)
  let resample () = ignore (timed_setup ()) in
  let t_run = now () in
  (match input with
  | `Sources sources ->
    run_build_workload w ~seconds:!seconds ~trace ~resample sources
  | `Commits commits ->
    run_serve_workload w ~seconds:!seconds ~trace ~resample commits);
  fact "run_wall_s" (Printf.sprintf "%.3f" (now () -. t_run));
  (* how fast the host ran the reference kernel, relative to [reference_s] *)
  fact "host_speed" (Printf.sprintf "%.4f" (reference_s /. median !kernel_times));
  samples "host_speed" (List.length !kernel_times);
  if not trace then begin
    metric "setup_s" (median !setup_times);
    samples "setup_s" (List.length !setup_times)
  end;
  (* Emit: per-layer names in the traced run, end-to-end names otherwise.
     A missing end-to-end metric, or any non-finite value, is a failure. *)
  let catalogue =
    if trace then List.map (fun (n, u, _) -> (n, u)) per_layer else end_to_end
  in
  let printed =
    List.map
      (fun (name, unit) ->
        let v =
          match List.assoc_opt name !metrics with
          | Some v when Float.is_finite v -> v
          | Some _ ->
            fail "metric %s is not finite" name;
            0.
          | None ->
            if not trace then fail "metric %s was not measured" name;
            0.
        in
        (name, v, unit))
      catalogue
  in
  let obj fields = "{" ^ String.concat ", " fields ^ "}" in
  let facts_json =
    obj (List.rev_map (fun (k, v) -> json_string k ^ ": " ^ json_string v) !facts)
  in
  let metrics_json =
    obj
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string n)
             (json_num v) (json_string u))
         printed)
  in
  (try
     if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
     let base =
       Printf.sprintf "%s/%s-s%d-t%d" !out w.w_name seed (if trace then 1 else 0)
     in
     if trace then write_trace (base ^ ".trace.json");
     let oc = open_out (base ^ ".json") in
     Printf.fprintf oc
       "{\"facts\": %s,\n \"metrics\": %s,\n \"origin\": %s,\n \"problems\": [%s]}\n"
       facts_json metrics_json
       (obj
          (if trace then
             List.map (fun (n, _, o) -> json_string n ^ ": " ^ json_string o) per_layer
           else []))
       (String.concat ", " (List.rev_map json_string !problems));
     close_out oc
   with Sys_error e -> prerr_endline ("perfbench: cannot write report: " ^ e));
  Printf.printf "{\"facts\": %s}\n" facts_json;
  let correct = !failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
    correct !attempted !failed metrics_json;
  exit (if correct then 0 else 1)
