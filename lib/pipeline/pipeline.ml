type mode =
  | Per_module
  | Whole_program
  | Thin_wpo of { workers : int }

type layout_strategy =
  [ `Append | `Caller_affinity | `Order_file | `C3 | `Balanced
  | `Bp_compress of float | `Stitch ]

let layout_strategy_name = function
  | `Append -> "append"
  | `Caller_affinity -> "caller-affinity"
  | `Order_file -> "order-file"
  | `C3 -> "c3"
  | `Balanced -> "balanced"
  | `Bp_compress w -> Printf.sprintf "bp-compress(w=%g)" w
  | `Stitch -> "stitch"

(* The one place the valid-strategy list is written down: the CLI and the
   spec parser both route their errors through here. *)
let layout_strategy_list =
  "append, caller-affinity, order-file, c3, balanced, bp-compress[(w=0..1)] \
   or stitch"

let layout_strategy_of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  let err () =
    Error (Printf.sprintf "unknown layout %S (want %s)" s layout_strategy_list)
  in
  match s with
  | "append" -> Ok `Append
  | "caller-affinity" -> Ok `Caller_affinity
  | "order-file" -> Ok `Order_file
  | "c3" -> Ok `C3
  | "balanced" -> Ok `Balanced
  | "bp-compress" -> Ok (`Bp_compress Pgo.Order.default_w)
  | "stitch" -> Ok `Stitch
  | _ ->
    (* bp-compress(w=0.3) — also accepts the bare bp-compress(0.3). *)
    let prefix = "bp-compress(" in
    let np = String.length prefix and n = String.length s in
    if n > np + 1 && String.sub s 0 np = prefix && s.[n - 1] = ')' then begin
      let inner = String.sub s np (n - np - 1) in
      let num =
        match String.index_opt inner '=' with
        | Some i when String.trim (String.sub inner 0 i) = "w" ->
          Some (String.sub inner (i + 1) (String.length inner - i - 1))
        | Some _ -> None
        | None -> Some inner
      in
      match Option.bind num (fun v -> float_of_string_opt (String.trim v)) with
      | Some w when w >= 0.0 && w <= 1.0 -> Ok (`Bp_compress w)
      | Some _ | None -> err ()
    end
    else err ()

type config = {
  mode : mode;
  outline_rounds : int;
  flag_semantics : Link.flag_semantics;
  data_order : Link.data_order;
  run_dce : bool;
  run_sil_outline : bool;
  sil_outline_min : int;
  run_merge_functions : bool;
  run_fmsa : bool;
  run_global_merge : bool;
  global_merge_min : int;
  global_merge_max_holes : int;
  entry_points : string list;
  no_outline_modules : string list;
  outlined_layout : layout_strategy;
  layout_profile : Pgo.Profile.t option;
  run_canonicalize : bool;
  outline_engine : [ `Incremental | `Scratch ];
  passes : Passman.spec list option;
  verify_each : bool;
  print_after : Passman.print_after;
  bisect_limit : int option;
  warm_outline : (Outcore.Outliner.engine * (string -> bool)) option;
}

let default_config =
  {
    mode = Whole_program;
    outline_rounds = 5;
    flag_semantics = Link.Attributes;
    data_order = Link.Module_preserving;
    run_dce = true;
    run_sil_outline = false;
    sil_outline_min = 8;
    run_merge_functions = false;
    run_fmsa = false;
    run_global_merge = false;
    global_merge_min = 4;
    global_merge_max_holes = 6;
    entry_points = [ "main" ];
    no_outline_modules = [ "system" ];
    outlined_layout = `Append;
    layout_profile = None;
    run_canonicalize = false;
    outline_engine = `Incremental;
    passes = None;
    verify_each = false;
    print_after = `Never;
    bisect_limit = None;
    warm_outline = None;
  }

let default_ios_config = { default_config with mode = Per_module }

type result = {
  program : Machine.Program.t;
  layout : Linker.layout;
  binary_size : int;
  code_size : int;
  function_order : string list option;
  timings : (string * float) list;
  timing_tree : Passman.timing list;
  pass_steps : Passman.step list;
  outline_stats : Outcore.Outliner.round_stats list;
  outline_profile : Outcore.Profile.t;
  thin_profile : Thinwpo.Engine.Report.t;
  warnings : string list;
}

(* --- pipeline specs -------------------------------------------------------- *)

let mk name = { Passman.sp_name = name; sp_params = [] }
let mk1 name key v = { Passman.sp_name = name; sp_params = [ (key, string_of_int v) ] }

(* Lower the config's pass flags onto the spec the manager runs.  This is
   the old hardcoded sequencing made explicit: the "opt" passes in their
   fixed order, then the machine passes — canonicalization and layout only
   ever ran together with outlining, so they stay tied to rounds > 0. *)
let lowered_spec (c : config) =
  (if c.run_dce then [ mk "dce" ] else [])
  @ (if c.run_sil_outline then [ mk1 "sil-outline" "min" c.sil_outline_min ]
     else [])
  @ (if c.run_merge_functions then [ mk "merge-functions" ] else [])
  @ (if c.run_fmsa then [ mk "fmsa" ] else [])
  @ (if c.run_global_merge then
       [
         {
           Passman.sp_name = "global-merge";
           sp_params =
             [
               ("min", string_of_int c.global_merge_min);
               ("max-holes", string_of_int c.global_merge_max_holes);
             ];
         };
       ]
     else [])
  @
  if c.outline_rounds <= 0 then []
  else
    (if c.run_canonicalize then [ mk "canonicalize" ] else [])
    @ (match c.mode with
      | Thin_wpo { workers } ->
        [
          {
            Passman.sp_name = "thin-outline";
            sp_params =
              [
                ("workers", string_of_int workers);
                ("rounds", string_of_int c.outline_rounds);
              ];
          };
        ]
      | Per_module | Whole_program ->
        [ mk1 "outline" "rounds" c.outline_rounds ])
    @
    match c.outlined_layout with
    | `Caller_affinity -> [ mk "caller-affinity-layout" ]
    | `Append -> []
    | `Stitch -> [ mk "stitch" ]
    | `Order_file | `C3 | `Balanced | `Bp_compress _ ->
      (* The profile-guided strategies surface as the linked [pgo-layout]
         marker pass, so a spec string can request and parameterize them. *)
      let params =
        match c.outlined_layout with
        | `Bp_compress w ->
          [ ("strategy", "bp-compress"); ("w", Printf.sprintf "%g" w) ]
        | `Order_file -> [ ("strategy", "order-file") ]
        | `C3 -> [ ("strategy", "c3") ]
        | _ -> [ ("strategy", "balanced") ]
      in
      [ { Passman.sp_name = "pgo-layout"; sp_params = params } ]

let spec_of_config c =
  match c.passes with
  | Some specs -> specs
  | None -> lowered_spec c

(* Registries instantiated with inert environments, used only to resolve
   names, parameter lists and stage membership. *)
let template_mir = Passman.mir_passes ~keep:(fun _ -> false)

let template_machine =
  Passman.machine_passes
    {
      Passman.me_engine = `Scratch;
      me_scope = "";
      me_profile = Outcore.Profile.create ();
      me_on_stats = (fun _ -> ());
      me_thin_workers = 1;
      me_thin_report = Thinwpo.Engine.Report.create ();
      me_warm = None;
    }

let known_pass name =
  match Passman.find_pass template_mir name with
  | Some p -> Some p.Passman.p_params
  | None -> (
    match Passman.find_pass template_machine name with
    | Some p -> Some p.Passman.p_params
    | None -> None)

let config_of_passes ?(base = default_config) s =
  match Passman.parse s with
  | Error e -> Error ("bad pass pipeline: " ^ e)
  | Ok specs -> (
    match Passman.validate_specs ~known:known_pass specs with
    | Error e -> Error ("bad pass pipeline: " ^ e)
    | Ok () -> (
      try
        let find n =
          List.find_opt (fun sp -> sp.Passman.sp_name = n) specs
        in
        let has n = find n <> None in
        let outline_rounds =
          match find "outline" with
          | Some sp -> Passman.int_param sp "rounds" ~default:5
          | None -> (
            match find "thin-outline" with
            | Some sp -> Passman.int_param sp "rounds" ~default:5
            | None -> 0)
        in
        let sil_outline_min =
          match find "sil-outline" with
          | Some sp -> Passman.int_param sp "min" ~default:8
          | None -> base.sil_outline_min
        in
        let pgo_layout =
          match find "pgo-layout" with
          | None -> None
          | Some sp -> (
            let param k = List.assoc_opt k sp.Passman.sp_params in
            let w =
              match param "w" with
              | None -> Pgo.Order.default_w
              | Some v -> (
                match float_of_string_opt v with
                | Some w when w >= 0.0 && w <= 1.0 -> w
                | Some _ | None ->
                  failwith
                    (Printf.sprintf "pgo-layout: w=%s is not in 0..1" v))
            in
            match Option.value ~default:"bp-compress" (param "strategy") with
            | "order-file" -> Some `Order_file
            | "c3" -> Some `C3
            | "balanced" -> Some `Balanced
            | "bp-compress" -> Some (`Bp_compress w)
            | s ->
              failwith
                (Printf.sprintf
                   "pgo-layout: unknown strategy %S (want order-file, c3, \
                    balanced or bp-compress)"
                   s))
        in
        let global_merge_min, global_merge_max_holes =
          match find "global-merge" with
          | Some sp ->
            ( Passman.int_param sp "min" ~default:4,
              Passman.int_param sp "max-holes" ~default:6 )
          | None -> (base.global_merge_min, base.global_merge_max_holes)
        in
        Ok
          {
            base with
            run_dce = has "dce";
            run_sil_outline = has "sil-outline";
            sil_outline_min;
            run_merge_functions = has "merge-functions";
            run_fmsa = has "fmsa";
            run_global_merge = has "global-merge";
            global_merge_min;
            global_merge_max_holes;
            run_canonicalize = has "canonicalize";
            outline_rounds;
            outlined_layout =
              (if has "caller-affinity-layout" then `Caller_affinity
               else if has "stitch" then `Stitch
               else
                 match pgo_layout with
                 | Some l -> l
                 | None -> (
                   match base.outlined_layout with
                   | `Caller_affinity | `Stitch -> `Append
                   | l -> l));
            passes = Some specs;
          }
      with Failure e -> Error ("bad pass pipeline: " ^ e)))

(* --- shared helpers -------------------------------------------------------- *)

(* System-framework modules ship outside the app binary on a real device;
   marking them no_outline keeps the outliner away, as §VII-B's execution
   profile assumes. *)
let mark_no_outline config (p : Machine.Program.t) =
  if config.no_outline_modules = [] then p
  else
    Machine.Program.replace_funcs p
      (List.map
         (fun (f : Machine.Mfunc.t) ->
           if List.mem f.Machine.Mfunc.from_module config.no_outline_modules then
             { f with Machine.Mfunc.no_outline = true }
           else f)
         p.Machine.Program.funcs)

(* --- the timing tree ------------------------------------------------------- *)

let delta_note (st : Passman.step) =
  if not st.Passman.st_applied then "skipped (opt-bisect)"
  else if st.Passman.st_before = st.Passman.st_after then
    Printf.sprintf "%d" st.Passman.st_after
  else Printf.sprintf "%d -> %d" st.Passman.st_before st.Passman.st_after

(* One tree: coarse phases at the root, the pass steps of each phase as
   children, outline rounds as children of the outline pass, and the
   outliner's per-phase split (from Outcore.Profile) — or, for thin-outline
   rounds, the per-shard timing subtree plus the global decision round
   (from the thin report) — as grandchildren. *)
let build_timing_tree phases steps profile thin_report =
  let steps = Array.of_list steps in
  let prof = ref (Outcore.Profile.rounds profile) in
  let next_prof () =
    match !prof with
    | [] -> None
    | r :: rest ->
      prof := rest;
      Some r
  in
  let tprof = ref (Thinwpo.Engine.Report.rounds thin_report) in
  let next_tprof () =
    match !tprof with
    | [] -> None
    | r :: rest ->
      tprof := rest;
      Some r
  in
  let step_name (st : Passman.step) =
    if st.Passman.st_unit = "" then st.Passman.st_pass
    else st.Passman.st_unit ^ "/" ^ st.Passman.st_pass
  in
  let children lo hi =
    let out = ref [] in
    let i = ref lo in
    while !i < hi do
      let st = steps.(!i) in
      if st.Passman.st_detail = "" then begin
        out :=
          Passman.leaf ~note:(delta_note st) (step_name st)
            st.Passman.st_seconds
          :: !out;
        incr i
      end
      else begin
        (* a run of sub-steps of one pass instance (e.g. outline rounds) *)
        let kids = ref [] in
        let j = ref !i in
        while
          !j < hi
          && steps.(!j).Passman.st_pass = st.Passman.st_pass
          && steps.(!j).Passman.st_unit = st.Passman.st_unit
          && steps.(!j).Passman.st_detail <> ""
        do
          let s = steps.(!j) in
          let grand =
            if s.Passman.st_pass = "outline" && s.Passman.st_applied then
              match next_prof () with
              | Some rp ->
                [
                  Passman.leaf "seq-build" rp.Outcore.Profile.rp_seq_build;
                  Passman.leaf "tree-build" rp.Outcore.Profile.rp_tree_build;
                  Passman.leaf "enumerate" rp.Outcore.Profile.rp_enumerate;
                  Passman.leaf "score" rp.Outcore.Profile.rp_score;
                  Passman.leaf "rewrite" rp.Outcore.Profile.rp_rewrite;
                ]
              | None -> []
            else if s.Passman.st_pass = "thin-outline" && s.Passman.st_applied
            then
              match next_tprof () with
              | Some tr ->
                List.map
                  (fun (sh : Thinwpo.Engine.Report.shard) ->
                    Passman.leaf
                      ~note:(Printf.sprintf "%d funcs" sh.rs_funcs)
                      ("shard " ^ sh.rs_module)
                      (sh.rs_discover +. sh.rs_rewrite))
                  tr.Thinwpo.Engine.Report.rr_shards
                @ [
                    Passman.leaf
                      ~note:
                        (Printf.sprintf "%d selected"
                           tr.Thinwpo.Engine.Report.rr_selected)
                      "global-decision" tr.Thinwpo.Engine.Report.rr_decide;
                  ]
              | None -> []
            else []
          in
          kids :=
            Passman.node ~note:(delta_note s) ~seconds:s.Passman.st_seconds
              s.Passman.st_detail grand
            :: !kids;
          incr j
        done;
        out := Passman.node (step_name st) (List.rev !kids) :: !out;
        i := !j
      end
    done;
    List.rev !out
  in
  List.map
    (fun (name, dt, lo, hi) -> Passman.node ~seconds:dt name (children lo hi))
    phases

(* --- the pass-manager pipeline --------------------------------------------- *)

let build ?dump ?(config = default_config) modules =
  let timings = ref [] in
  let phases = ref [] in
  let outline_stats = ref [] in
  let outline_profile = Outcore.Profile.create () in
  let thin_report = Thinwpo.Engine.Report.create () in
  let ctx =
    Passman.create_ctx ~verify_each:config.verify_each
      ~print_after:config.print_after ?bisect_limit:config.bisect_limit ?dump
      ()
  in
  let timed name f =
    let steps_before = List.length (Passman.steps ctx) in
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    timings := (name, dt) :: !timings;
    phases := (name, dt, steps_before, List.length (Passman.steps ctx)) :: !phases;
    r
  in
  try
    let specs = spec_of_config config in
    (match Passman.validate_specs ~known:known_pass specs with
    | Ok () -> ()
    | Error e -> failwith e);
    let keep (f : Ir.func) = List.mem f.Ir.name config.entry_points in
    let mir_registry = Passman.mir_passes ~keep in
    let thin_workers =
      match config.mode with Thin_wpo { workers } -> workers | _ -> 1
    in
    let machine_registry ?(profile = outline_profile)
        ?(on_stats = fun s -> outline_stats := !outline_stats @ s) scope =
      Passman.machine_passes
        {
          Passman.me_engine = config.outline_engine;
          me_scope = scope;
          me_profile = profile;
          me_on_stats = on_stats;
          me_thin_workers = thin_workers;
          me_thin_report = thin_report;
          (* The warm engine is whole-program state: per-module scopes get
             their own dirty-set reuse within a run but never share caches
             across requests (module-scoped symbol arrays would leak between
             apps). *)
          me_warm = (if scope = "" then config.warm_outline else None);
        }
    in
    let mir_specs, machine_specs =
      List.partition
        (fun sp -> Passman.find_pass template_mir sp.Passman.sp_name <> None)
        specs
    in
    let machine_unit_specs, machine_linked_specs =
      List.partition
        (fun sp ->
          match Passman.find_pass template_machine sp.Passman.sp_name with
          | Some p -> not p.Passman.p_linked
          | None -> true)
        machine_specs
    in
    (* global-merge is the one MIR pass whose decision spans compilation
       units, so the per-module modes split their MIR spec around it:
       the prefix runs per unit, the merge runs once over every unit,
       the suffix (and the machine unit passes) run per unit after. *)
    let mir_local_specs, gm_spec, mir_post_specs =
      let rec split acc = function
        | [] -> (List.rev acc, None, [])
        | sp :: rest when sp.Passman.sp_name = "global-merge" ->
          (List.rev acc, Some sp, rest)
        | sp :: rest -> split (sp :: acc) rest
      in
      split [] mir_specs
    in
    (* One bisect step on the parent context — the decision is global, so
       it cannot live inside any unit's step reservation; verify-each and
       print-after apply per module, as run_passes would. *)
    let global_merge_phase ~workers sp ms =
      let min_instrs = Passman.int_param sp "min" ~default:4 in
      let max_holes = Passman.int_param sp "max-holes" ~default:6 in
      let size ms =
        List.fold_left (fun a m -> a + Ir.module_instr_count m) 0 ms
      in
      let before = size ms in
      if Passman.gate ctx ~pass:"global-merge" ~detail:"" then begin
        let t0 = Unix.gettimeofday () in
        let out =
          fst
            (Global_merge.run_modules ~workers ~min_instrs ~max_holes
               ~keep:(fun (f : Ir.func) ->
                 List.mem f.Ir.name config.entry_points)
               ms)
        in
        Passman.record ctx
          {
            Passman.st_pass = "global-merge";
            st_detail = "";
            st_unit = "";
            st_applied = true;
            st_seconds = Unix.gettimeofday () -. t0;
            st_before = before;
            st_after = size out;
          };
        if Passman.verify_each ctx then
          List.iter
            (fun (m : Ir.modul) ->
              match Ir.validate m with
              | Ok () -> ()
              | Error e ->
                failwith
                  (Printf.sprintf "verify-each after %s: %s"
                     (m.Ir.m_name ^ "/global-merge")
                     e))
            out;
        if Passman.should_print_after ctx "global-merge" then
          List.iter
            (fun (m : Ir.modul) ->
              Passman.dump ctx
                (m.Ir.m_name ^ "/global-merge")
                (Format.asprintf "%a" Ir.pp_modul m))
            out;
        out
      end
      else begin
        Passman.record ctx
          {
            Passman.st_pass = "global-merge";
            st_detail = "";
            st_unit = "";
            st_applied = false;
            st_seconds = 0.;
            st_before = before;
            st_after = before;
          };
        ms
      end
    in
    let program =
      match config.mode with
      | Whole_program ->
        (* llvm-link -> opt -> llc(+machine passes over everything). *)
        let merged =
          timed "llvm-link" (fun () ->
              match
                Link.link ~flag_semantics:config.flag_semantics
                  ~data_order:config.data_order ~name:"whole" modules
              with
              | Ok m -> m
              | Error e -> failwith (Link.error_to_string e))
        in
        let optimized =
          timed "opt" (fun () ->
              Passman.run_passes ctx Passman.mir_stage mir_registry mir_specs
                merged)
        in
        let machine =
          timed "llc" (fun () ->
              mark_no_outline config (Codegen.compile_modul optimized))
        in
        if machine_specs <> [] then
          timed "machine-outliner" (fun () ->
              Passman.run_passes ctx Passman.machine_stage
                (machine_registry "") machine_specs machine)
        else machine
      | Per_module -> (
        (* Independent per-module compilation, then the system linker.
           The same registered passes run, per compilation unit; linked
           passes (layout) wait for the merge. *)
        let finish_units (m : Ir.modul) post_specs =
          let optimized =
            Passman.run_passes ctx Passman.mir_stage mir_registry
              ~unit_name:m.Ir.m_name post_specs m
          in
          let machine =
            mark_no_outline config (Codegen.compile_modul optimized)
          in
          if machine_unit_specs <> [] then
            Passman.run_passes ctx Passman.machine_stage
              (machine_registry m.Ir.m_name) ~unit_name:m.Ir.m_name
              machine_unit_specs machine
          else machine
        in
        let units =
          match gm_spec with
          | None ->
            timed "compile-modules" (fun () ->
                List.map (fun m -> finish_units m mir_specs) modules)
          | Some gm ->
            let locals =
              timed "compile-modules-local" (fun () ->
                  List.map
                    (fun (m : Ir.modul) ->
                      Passman.run_passes ctx Passman.mir_stage mir_registry
                        ~unit_name:m.Ir.m_name mir_local_specs m)
                    modules)
            in
            let merged_mods =
              timed "global-merge" (fun () ->
                  global_merge_phase ~workers:1 gm locals)
            in
            timed "compile-modules" (fun () ->
                List.map (fun m -> finish_units m mir_post_specs) merged_mods)
        in
        timed "system-linker-merge" (fun () ->
            let merged = Machine.Program.concat units in
            if machine_linked_specs <> [] then
              Passman.run_passes ctx Passman.machine_stage
                (machine_registry "") machine_linked_specs merged
            else merged))
      | Thin_wpo { workers } ->
        (* ThinLTO's shape: the per-module phase of the iOS pipeline, but
           on a domain pool, then the linked passes — thin-outline above
           all — over the merge.  Each unit runs in a forked pass context
           with a precomputed bisect-step reservation and a private
           outline profile/stats sink, so step numbering, dump order, and
           stats order are functions of the module list alone, never of
           domain scheduling.  A global-merge spec splits the phase in
           three — parallel local MIR, the serial cross-module merge on
           the parent context, parallel finish — mirroring the merger's
           own summary-exchange protocol. *)
        let workers = Thinwpo.Pool.resolve_workers workers in
        let marr =
          match gm_spec with
          | None -> Array.of_list modules
          | Some gm ->
            let pre_reserved = Passman.reserved_steps mir_local_specs in
            let locals =
              timed "compile-modules-local" (fun () ->
                  let forked =
                    Array.mapi
                      (fun i _ -> Passman.fork ctx ~offset:(i * pre_reserved))
                      (Array.of_list modules)
                  in
                  let out =
                    Thinwpo.Pool.map ~workers
                      (fun i ->
                        let m = List.nth modules i in
                        Passman.run_passes forked.(i) Passman.mir_stage
                          mir_registry ~unit_name:m.Ir.m_name mir_local_specs
                          m)
                      (Array.init (List.length modules) Fun.id)
                  in
                  Passman.join ctx
                    ~advance:(List.length modules * pre_reserved)
                    (Array.to_list forked);
                  out)
            in
            timed "global-merge" (fun () ->
                Array.of_list
                  (global_merge_phase ~workers gm (Array.to_list locals)))
        in
        let finish_specs =
          match gm_spec with None -> mir_specs | Some _ -> mir_post_specs
        in
        let unit_reserved =
          Passman.reserved_steps (finish_specs @ machine_unit_specs)
        in
        let units =
          timed "compile-modules" (fun () ->
              let forked =
                Array.mapi
                  (fun i _ -> Passman.fork ctx ~offset:(i * unit_reserved))
                  marr
              in
              let compiled =
                Thinwpo.Pool.map ~workers
                  (fun i ->
                    let m = marr.(i) in
                    let fctx = forked.(i) in
                    let profile = Outcore.Profile.create () in
                    let stats = ref [] in
                    let optimized =
                      Passman.run_passes fctx Passman.mir_stage mir_registry
                        ~unit_name:m.Ir.m_name finish_specs m
                    in
                    let machine =
                      mark_no_outline config (Codegen.compile_modul optimized)
                    in
                    let machine =
                      if machine_unit_specs <> [] then
                        Passman.run_passes fctx Passman.machine_stage
                          (machine_registry ~profile
                             ~on_stats:(fun s -> stats := !stats @ s)
                             m.Ir.m_name)
                          ~unit_name:m.Ir.m_name machine_unit_specs machine
                      else machine
                    in
                    (machine, profile, !stats))
                  (Array.init (Array.length marr) Fun.id)
              in
              Passman.join ctx
                ~advance:(Array.length marr * unit_reserved)
                (Array.to_list forked);
              (* Merge the per-unit sinks in module order. *)
              Array.iter
                (fun (_, profile, stats) ->
                  List.iter
                    (fun rp ->
                      let rp' =
                        Outcore.Profile.new_round outline_profile
                          rp.Outcore.Profile.rp_round
                      in
                      rp'.Outcore.Profile.rp_seq_build <-
                        rp.Outcore.Profile.rp_seq_build;
                      rp'.Outcore.Profile.rp_tree_build <-
                        rp.Outcore.Profile.rp_tree_build;
                      rp'.Outcore.Profile.rp_enumerate <-
                        rp.Outcore.Profile.rp_enumerate;
                      rp'.Outcore.Profile.rp_score <-
                        rp.Outcore.Profile.rp_score;
                      rp'.Outcore.Profile.rp_rewrite <-
                        rp.Outcore.Profile.rp_rewrite)
                    (Outcore.Profile.rounds profile);
                  outline_stats := !outline_stats @ stats)
                compiled;
              Array.to_list (Array.map (fun (p, _, _) -> p) compiled))
        in
        timed "system-linker-merge" (fun () ->
            let merged = Machine.Program.concat units in
            if machine_linked_specs <> [] then
              Passman.run_passes ctx Passman.machine_stage
                (machine_registry "") machine_linked_specs merged
            else merged)
    in
    (match Machine.Program.validate program with
    | Ok () -> ()
    | Error e -> failwith ("pipeline produced invalid program: " ^ e));
    (* Profile-guided strategies close the loop here: use the recorded
       profile (--profile-in), or self-profile by counting a [main] run of
       the just-built program.  A run cut short by its budget or a trap
       still profiles its prefix, and says so. *)
    let warnings = ref [] in
    let layout_profile () =
      match config.layout_profile with
      | Some p -> p
      | None ->
        timed "pgo-collect" (fun () ->
            let profile, stops = Pgo.Collect.self_profile program in
            warnings :=
              List.map
                (Pgo.Collect.stop_warning ~budget:Pgo.Collect.self_profile_steps)
                stops;
            profile)
    in
    let program, function_order =
      match config.outlined_layout with
      | `Append | `Caller_affinity -> (program, None)
      | (`Order_file | `C3 | `Balanced | `Bp_compress _) as strategy ->
        let profile = layout_profile () in
        ( program,
          Some
            (timed "pgo-layout" (fun () ->
                 Pgo.Order.compute strategy profile program)) )
      | `Stitch ->
        (* Block-granularity placement transforms the program itself:
           cold blocks split to the [__text_cold] region, fallthroughs
           materialized where the split separates them, then chains
           ordered along the hottest interprocedural edges. *)
        let profile = layout_profile () in
        let split =
          timed "stitch-split" (fun () ->
              Blocklayout.split_program ~profile program)
        in
        (match Machine.Program.validate split with
        | Ok () -> ()
        | Error e -> failwith ("stitch produced invalid program: " ^ e));
        let order =
          timed "stitch-order" (fun () ->
              Blocklayout.stitch_order ~profile split)
        in
        (split, Some order)
    in
    let layout =
      timed "system-linker" (fun () ->
          Linker.link ?order:function_order program)
    in
    Ok
      {
        program;
        layout;
        binary_size = Linker.binary_size layout;
        code_size = layout.Linker.text_size;
        function_order;
        timings = List.rev !timings;
        timing_tree =
          build_timing_tree (List.rev !phases) (Passman.steps ctx)
            outline_profile thin_report;
        pass_steps = Passman.steps ctx;
        outline_stats = !outline_stats;
        outline_profile;
        thin_profile = thin_report;
        warnings = !warnings;
      }
  with Failure e -> Error e

let build_sources ?dump ?config sources =
  match Swiftlet.Compile.compile_program sources with
  | Error e -> Error e
  | Ok modules -> build ?dump ?config modules

(* --- the pre-refactor sequencing (transitional reference) ------------------ *)

(* The hardcoded pipeline exactly as it was before the pass-manager
   refactor, kept so the fuzz lattice can assert the refactor is
   observationally exact: the default config must produce byte-identical
   programs through both paths.  Delete once the differential has soaked. *)

let reference_timed timings name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  timings := (name, Unix.gettimeofday () -. t0) :: !timings;
  r

let reference_opt_module config (m : Ir.modul) =
  let m = if config.run_dce then fst (Dce.run m) else m in
  let m =
    if config.run_sil_outline then
      fst (Swiftlet.Sil_outline.run ~min_occurrences:config.sil_outline_min m)
    else m
  in
  let keep (f : Ir.func) = List.mem f.Ir.name config.entry_points in
  let m =
    if config.run_merge_functions then fst (Merge_functions.run ~keep m) else m
  in
  let m = if config.run_fmsa then fst (Fmsa.run ~keep m) else m in
  m

let reference_outline_options ~scope =
  { Outcore.Outliner.default_options with scope_name = scope }

let build_reference ?(config = default_config) modules =
  let timings = ref [] in
  let outline_stats = ref [] in
  let outline_profile = Outcore.Profile.create () in
  try
    let program =
      match config.mode with
      | Thin_wpo _ ->
        failwith "build_reference: thin-WPO postdates the pass-manager refactor"
      | Whole_program ->
        let merged =
          reference_timed timings "llvm-link" (fun () ->
              match
                Link.link ~flag_semantics:config.flag_semantics
                  ~data_order:config.data_order ~name:"whole" modules
              with
              | Ok m -> m
              | Error e -> failwith (Link.error_to_string e))
        in
        let optimized =
          reference_timed timings "opt" (fun () ->
              reference_opt_module config merged)
        in
        let machine =
          reference_timed timings "llc" (fun () ->
              mark_no_outline config (Codegen.compile_modul optimized))
        in
        if config.outline_rounds > 0 then
          reference_timed timings "machine-outliner" (fun () ->
              let machine =
                if config.run_canonicalize then
                  fst (Outcore.Canonicalize.run machine)
                else machine
              in
              let p, stats =
                Outcore.Repeat.run
                  ~options:(reference_outline_options ~scope:"")
                  ~profile:outline_profile ~engine:config.outline_engine
                  ~rounds:config.outline_rounds machine
              in
              outline_stats := stats;
              match config.outlined_layout with
              | `Caller_affinity -> Outcore.Layout.optimize p
              | `Append | `Order_file | `C3 | `Balanced | `Bp_compress _
              | `Stitch ->
                p)
        else machine
      | Per_module ->
        let units =
          reference_timed timings "compile-modules" (fun () ->
              List.map
                (fun (m : Ir.modul) ->
                  let optimized = reference_opt_module config m in
                  let machine =
                    mark_no_outline config (Codegen.compile_modul optimized)
                  in
                  if config.outline_rounds > 0 then begin
                    let p, stats =
                      Outcore.Repeat.run
                        ~options:(reference_outline_options ~scope:m.Ir.m_name)
                        ~profile:outline_profile ~engine:config.outline_engine
                        ~rounds:config.outline_rounds machine
                    in
                    outline_stats := !outline_stats @ stats;
                    p
                  end
                  else machine)
                modules)
        in
        reference_timed timings "system-linker-merge" (fun () ->
            let merged = Machine.Program.concat units in
            match config.outlined_layout with
            | `Caller_affinity when config.outline_rounds > 0 ->
              Outcore.Layout.optimize merged
            | `Caller_affinity | `Append | `Order_file | `C3 | `Balanced
            | `Bp_compress _ | `Stitch ->
              merged)
    in
    (match Machine.Program.validate program with
    | Ok () -> ()
    | Error e -> failwith ("pipeline produced invalid program: " ^ e));
    let function_order =
      match config.outlined_layout with
      | `Append | `Caller_affinity -> None
      | `Stitch ->
        failwith "build_reference: stitch postdates the pass-manager refactor"
      | (`Order_file | `C3 | `Balanced | `Bp_compress _) as strategy ->
        let profile =
          match config.layout_profile with
          | Some p -> p
          | None ->
            reference_timed timings "pgo-collect" (fun () ->
                fst (Pgo.Collect.self_profile program))
        in
        Some
          (reference_timed timings "pgo-layout" (fun () ->
               Pgo.Order.compute strategy profile program))
    in
    let layout =
      reference_timed timings "system-linker" (fun () ->
          Linker.link ?order:function_order program)
    in
    Ok
      {
        program;
        layout;
        binary_size = Linker.binary_size layout;
        code_size = layout.Linker.text_size;
        function_order;
        timings = List.rev !timings;
        timing_tree = [];
        pass_steps = [];
        outline_stats = !outline_stats;
        outline_profile;
        thin_profile = Thinwpo.Engine.Report.create ();
        warnings = [];
      }
  with Failure e -> Error e
