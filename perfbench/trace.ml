(* Spans recorded from the benchmark's side of every call it makes into
   a layer of the system.  Nothing here reaches into the program: a span
   reads the caller's simulated CPU clock and the host clock before and
   after the call, so tracing cannot move a simulated number.

   Host time is partitioned among open spans: at every span boundary the
   host time since the previous boundary goes to the most recently
   opened span that is still open.  Simulated threads are coroutines on
   one host thread, so a blocking call (an RPC, a [udp_recv]) stays open
   while other threads run; their own spans take the host time back as
   soon as they open.  The per-layer sums therefore add up to the host
   time spent inside spans, with no interval counted twice. *)

type span = {
  id : int;
  parent : int;  (* 0 for a phase (root) span *)
  req : int;  (* request id shared by the spans of one operation *)
  layer : string;
  name : string;
  cpu : int;  (* the caller's simulated CPU; -1 outside the machine *)
  sim0 : int;  (* simulated cycles on the caller's CPU clock *)
  mutable sim1 : int;
  host0 : float;  (* host seconds *)
  mutable host1 : float;
  mutable self_host : float;
}

let enabled = ref false
let spans : span list ref = ref []
let open_spans : span list ref = ref []
let next_id = ref 1
let mark = ref 0.0
let phase_id = ref 0

(* Host time of the set-up and timed phases, always measured. *)
let setup_s = ref 0.0
let timed_s = ref 0.0

let reset () =
  spans := [];
  open_spans := [];
  next_id := 1;
  phase_id := 0;
  setup_s := 0.0;
  timed_s := 0.0

let host_now = Unix.gettimeofday

let charge t =
  (match !open_spans with
  | s :: _ -> s.self_host <- s.self_host +. (t -. !mark)
  | [] -> ());
  mark := t

let sim_now = function Some m -> Machine.now m | None -> 0
let sim_cpu = function Some m -> Machine.active m | None -> -1

let span_open ~root ?machine ~req ~layer ~name () =
  let t = host_now () in
  charge t;
  let id = !next_id in
  incr next_id;
  let s =
    {
      id;
      parent = (if root then 0 else !phase_id);
      req;
      layer;
      name;
      cpu = sim_cpu machine;
      sim0 = sim_now machine;
      sim1 = 0;
      host0 = t;
      host1 = t;
      self_host = 0.0;
    }
  in
  open_spans := s :: !open_spans;
  spans := s :: !spans;
  s

let span_close ?machine s =
  let t = host_now () in
  charge t;
  s.host1 <- t;
  s.sim1 <- sim_now machine;
  open_spans := List.filter (fun x -> x != s) !open_spans

let traced ~root ?machine ~req ~layer ~name f =
  if not !enabled then f ()
  else begin
    let s = span_open ~root ?machine ~req ~layer ~name () in
    if root then phase_id := s.id;
    match f () with
    | r ->
        span_close ?machine s;
        r
    | exception e ->
        span_close ?machine s;
        raise e
  end

(* A call made by an operation of the workload. *)
let call ?machine ?(req = 0) ~layer name f =
  traced ~root:false ?machine ~req ~layer ~name f

let phase acc ?machine ~layer name f =
  let t0 = host_now () in
  let r = traced ~root:true ?machine ~req:0 ~layer ~name f in
  acc := !acc +. (host_now () -. t0);
  r

(* Boot, mkfs, populate and warm-up: counted in [setup_s]. *)
let setup ?machine ~layer name f = phase setup_s ?machine ~layer name f

(* The timed phase: counted in [host_s]. *)
let timed ?machine ~layer name f = phase timed_s ?machine ~layer name f

let layer_host () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let v = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.layer) in
      Hashtbl.replace tbl s.layer (v +. s.self_host))
    !spans;
  List.of_seq (Hashtbl.to_seq tbl)

(* One JSON object per span; host times in ns from the first span. *)
let write path =
  let spans = List.rev !spans in
  let t0 = match spans with s :: _ -> s.host0 | [] -> 0.0 in
  let ns t = (t -. t0) *. 1e9 in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"req\":%d,\"layer\":%S,\"name\":%S,\"cpu\":%d,\
         \"sim0\":%d,\"sim1\":%d,\"host0_ns\":%.0f,\"host1_ns\":%.0f,\"self_host_ns\":%.0f}\n"
        s.id s.parent s.req s.layer s.name s.cpu s.sim0 s.sim1 (ns s.host0) (ns s.host1)
        (s.self_host *. 1e9))
    spans;
  close_out oc
