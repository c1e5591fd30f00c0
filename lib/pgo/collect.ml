(* Profiling wants counts, not timings: the cost model off makes the run
   cheaper without changing a single count.  Unknown externs are no-ops so
   partially-modelled programs still yield a usable (partial) profile. *)
let default_config =
  {
    Perfsim.Interp.default_config with
    model_perf = false;
    unknown_extern = `Noop;
    max_steps = 50_000_000;
  }

let self_profile_steps = 20_000_000

let bump h k n =
  Hashtbl.replace h k (n + Option.value ~default:0 (Hashtbl.find_opt h k))

let collect ?(config = default_config) ?(args_for = fun _ -> []) ~workload
    ~entries program =
  let counts = Hashtbl.create 256 and edges = Hashtbl.create 1024 in
  let blocks = Hashtbl.create 4096 and touched = Hashtbl.create 256 in
  let touch_rev = ref [] in
  (* First touch is per run; across runs keep the earliest global order. *)
  let touch f =
    if not (Hashtbl.mem touched f) then begin
      Hashtbl.replace touched f ();
      touch_rev := f :: !touch_rev
    end
  in
  let stops =
    List.filter_map
      (fun entry ->
        (* A run that traps or exhausts its budget still counts what it
           executed: a crashing span contributes its prefix. *)
        let outcome, counted =
          Perfsim.Interp.run_counted ~config ~args:(args_for entry) ~entry
            program
        in
        Option.iter
          (fun (c : Perfsim.Interp.counts) ->
            let name s = c.slot_func.(s) in
            bump counts entry 1;
            touch entry;
            List.iter (fun s -> touch (name s)) c.first_entries;
            List.iter
              (fun ((site, callee), n) ->
                bump edges (name site, name callee) n;
                bump counts (name callee) n)
              c.calls;
            List.iter
              (fun (s, f, l) ->
                if c.hits.(s) > 0 then bump blocks (f, l) c.hits.(s))
              c.block_starts)
          counted;
        match outcome with Ok _ -> None | Error e -> Some (entry, e))
      entries
  in
  let pairs h = Hashtbl.fold (fun k n acc -> (k, n) :: acc) h [] in
  ( Profile.make ~workload ~entries ~first_touch:(List.rev !touch_rev)
      ~counts:(pairs counts) ~edges:(pairs edges) ~blocks:(pairs blocks) (),
    stops )

let self_profile program =
  collect
    ~config:{ default_config with max_steps = self_profile_steps }
    ~workload:"self" ~entries:[ "main" ] program

let stop_warning ~budget (entry, e) =
  Printf.sprintf
    "profile run of %s stopped early (%s; budget %d steps): layout uses the \
     executed prefix"
    entry (Perfsim.Interp.error_to_string e) budget
