module Time_map = Map.Make (Int)

type t = {
  mutable events : (unit -> unit) list Time_map.t;  (* reversed lists *)
}

let create () = { events = Time_map.empty }

let schedule t ~at f =
  let existing = Option.value ~default:[] (Time_map.find_opt at t.events) in
  t.events <- Time_map.add at (f :: existing) t.events

let next_time t =
  match Time_map.min_binding_opt t.events with
  | Some (time, _) -> Some time
  | None -> None

let run_due t ~now =
  let fired = ref 0 in
  let rec loop () =
    match Time_map.min_binding_opt t.events with
    | Some (time, fs) when time <= now ->
        t.events <- Time_map.remove time t.events;
        List.iter
          (fun f ->
            incr fired;
            f ())
          (List.rev fs);
        loop ()
    | Some _ | None -> ()
  in
  loop ();
  !fired
