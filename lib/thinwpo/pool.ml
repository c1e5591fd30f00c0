let resolve_workers w = if w <= 0 then Domain.recommended_domain_count () else w

let map_init ~workers ~init ~f arr =
  let n = Array.length arr in
  (* Domains beyond the host's cores only contend for them. *)
  let workers =
    min (min (max workers 1) n) (Domain.recommended_domain_count ())
  in
  if workers <= 1 then begin
    let st = init () in
    Array.map (f st) arr
  end
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let st = init () in
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (match f st arr.(i) with
          | v -> results.(i) <- Some v
          | exception e -> errors.(i) <- Some e);
          loop ()
        end
      in
      loop ()
    in
    let domains = List.init (workers - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join domains;
    (* Each cell is written by exactly one domain and the joins establish
       the happens-before edge, so the reads below see every write.  Raise
       for the smallest failing index: deterministic whatever the
       scheduling was. *)
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.map (function Some v -> v | None -> assert false) results
  end

let map ~workers f arr = map_init ~workers ~init:(fun () -> ()) ~f:(fun () x -> f x) arr
