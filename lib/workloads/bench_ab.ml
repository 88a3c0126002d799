(* A/B regression diff over two BENCH_*.json files.

   Flattens both documents to (path, leaf) pairs, pairs them up, and
   judges each numeric delta by the metric's direction: names that look
   like throughput/speedup regress when they fall, cost-like names
   (cycles, misses, stalls...) regress when they rise, anything else is
   reported but never gates.  String leaves (phase and scenario names,
   gate bounds, Machcheck findings) are compared too, with no direction.
   Host-time and provenance fields are skipped — only deterministic
   simulated output can fail a build.

   Threshold 0 means exact: every changed leaf fails, whatever its
   direction or type, and so does every leaf present in only one file.  That is
   how the smoke run checks its output against the checked-in baselines
   — the simulator is deterministic, so nothing may move unannounced.

   The two files must carry the same "experiment" and "schema_version";
   comparing apples to oranges is an error, not a zero diff. *)

type delta = {
  d_path : string;
  d_a : Json.t;  (* a number or a string *)
  d_b : Json.t;
  d_change : float;  (* (b - a) / a; +inf when a = 0 and b <> 0; nan unless
                        both are numbers *)
  d_direction : [ `Higher_better | `Lower_better | `Neutral ];
  d_regression : bool;
}

type verdict = {
  v_experiment : string;
  v_threshold : float;
  v_compared : int;  (* leaves present in both files *)
  v_only_a : string list;  (* leaves present in A but missing from B *)
  v_only_b : string list;
  v_deltas : delta list;  (* changed leaves only, worst first *)
  v_regressions : int;
}

(* Provenance (git_rev, seed, timestamp) lives under "run"; it and
   host-time noise are never compared. *)
let skipped_subtree = function "run" -> true | _ -> false

let contains path sub =
  let n = String.length path and m = String.length sub in
  let rec go i = i + m <= n && (String.sub path i m = sub || go (i + 1)) in
  m > 0 && go 0

let skipped_leaf path = contains path "host_ns"

let direction path =
  let any = List.exists (contains path) in
  if any [ "throughput"; "speedup"; "completed"; "hits"; "hit_rate"; "pass" ]
  then `Higher_better
  else if
    any
      [ "cycles"; "miss"; "stall"; "retries"; "lost"; "torn"; "findings";
        "residual"; "gave_up" ]
  then `Lower_better
  else `Neutral

(* Flatten to leaf paths, each leaf a number (a flag as 1 or 0) or a
   string.  Array elements are keyed by index, except
   arrays of objects that carry identifying fields (system/bytes,
   workload/placement/ncpus...), which are keyed by those values so a
   reordered results array still lines up. *)
let flatten json =
  let id_key fields =
    let pick k =
      match List.assoc_opt k fields with
      | Some (Json.Str s) -> Some s
      | Some (Json.Num x) -> Some (Printf.sprintf "%g" x)
      | _ -> None
    in
    let parts =
      List.filter_map pick
        [ "system"; "workload"; "phase"; "scenario"; "placement"; "ncpus";
          "bytes"; "crash_ppm"; "write"; "ops" ]
    in
    if parts = [] then None else Some (String.concat "/" parts)
  in
  let acc = ref [] in
  let leaf path v = if not (skipped_leaf path) then acc := (path, v) :: !acc in
  let rec go path = function
    | (Json.Num _ | Json.Str _) as v -> leaf path v
    | Json.Bool bv -> leaf path (Json.Num (if bv then 1.0 else 0.0))
    | Json.Null -> ()
    | Json.Obj fields ->
        List.iter
          (fun (k, v) ->
            if not (skipped_subtree k) then
              go (if path = "" then k else path ^ "." ^ k) v)
          fields
    | Json.Arr items ->
        List.iteri
          (fun i v ->
            let key =
              match v with
              | Json.Obj fields -> (
                  match id_key fields with
                  | Some id -> Printf.sprintf "%s[%s]" path id
                  | None -> Printf.sprintf "%s[%d]" path i)
              | _ -> Printf.sprintf "%s[%d]" path i
            in
            go key v)
          items
  in
  go "" json;
  List.rev !acc

let verdict ~experiment ~threshold ja jb =
  let exact = threshold = 0.0 in
  let tb = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace tb k v) (flatten jb);
  let compared = ref 0 and only_a = ref [] and deltas = ref [] in
  List.iter
    (fun (path, va) ->
      match Hashtbl.find_opt tb path with
      | None -> only_a := path :: !only_a
      | Some vb ->
          incr compared;
          Hashtbl.remove tb path;
          if va <> vb then begin
            let change, dir =
              match (va, vb) with
              | Json.Num a, Json.Num b ->
                  ( (if a = 0.0 then if b > 0.0 then infinity else neg_infinity
                     else (b -. a) /. Float.abs a),
                    direction path )
              | _ -> (Float.nan, `Neutral)
            in
            let regression =
              exact
              ||
              match dir with
              | `Higher_better -> change < -.threshold
              | `Lower_better -> change > threshold
              | `Neutral -> false
            in
            deltas :=
              { d_path = path; d_a = va; d_b = vb; d_change = change;
                d_direction = dir; d_regression = regression }
              :: !deltas
          end)
    (flatten ja);
  let only_a = List.rev !only_a in
  let only_b = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tb []) in
  let deltas =
    List.sort
      (fun x y ->
        match (y.d_regression, x.d_regression) with
        | true, false -> 1
        | false, true -> -1
        | _ -> compare (Float.abs y.d_change) (Float.abs x.d_change))
      !deltas
  in
  {
    v_experiment = experiment;
    v_threshold = threshold;
    v_compared = !compared;
    v_only_a = only_a;
    v_only_b = only_b;
    v_deltas = deltas;
    v_regressions =
      List.length (List.filter (fun d -> d.d_regression) deltas)
      + if exact then List.length only_a + List.length only_b else 0;
  }

let compare_json ~a ~b ~threshold =
  let header key ja jb =
    match (Json.member key ja, Json.member key jb) with
    | None, _ | _, None -> Error (Printf.sprintf "missing %S field" key)
    | Some x, Some y when x <> y ->
        Error
          (Printf.sprintf "%s mismatch: %s vs %s" key (Json.compact x)
             (Json.compact y))
    | Some x, Some _ -> Ok x
  in
  match (Json.parse a, Json.parse b) with
  | Error e, _ -> Error (Printf.sprintf "A: invalid JSON: %s" e)
  | _, Error e -> Error (Printf.sprintf "B: invalid JSON: %s" e)
  | Ok ja, Ok jb -> (
      match (header "experiment" ja jb, header "schema_version" ja jb) with
      | Error e, _ | _, Error e -> Error e
      | Ok experiment, Ok _ ->
          let experiment =
            match experiment with Json.Str s -> s | v -> Json.compact v
          in
          Ok (verdict ~experiment ~threshold ja jb))

let compare_files ~a ~b ~threshold =
  let read path = In_channel.with_open_bin path In_channel.input_all in
  match (read a, read b) with
  | exception Sys_error e -> Error e
  | sa, sb -> compare_json ~a:sa ~b:sb ~threshold

let pp_verdict ppf v =
  Format.fprintf ppf
    "experiment %s: %d metrics compared (%d only in A, %d only in B), \
     threshold %.1f%%@\n"
    v.v_experiment v.v_compared (List.length v.v_only_a)
    (List.length v.v_only_b) (v.v_threshold *. 100.0);
  List.iter (Format.fprintf ppf "only in A: %s@\n") v.v_only_a;
  List.iter (Format.fprintf ppf "only in B: %s@\n") v.v_only_b;
  if v.v_deltas = [] then Format.fprintf ppf "no metric changed@\n"
  else begin
    Format.fprintf ppf "%-52s %14s %14s %9s@\n" "metric" "A" "B" "change";
    let text = function
      | Json.Num x -> Printf.sprintf "%.1f" x
      | v -> Json.compact v
    in
    List.iter
      (fun d ->
        Format.fprintf ppf "%-52s %14s %14s %9s%s@\n" d.d_path (text d.d_a)
          (text d.d_b)
          (if Float.is_nan d.d_change then ""
           else Printf.sprintf "%.1f%%" (d.d_change *. 100.0))
          (if d.d_regression then "  << REGRESSION"
           else
             match d.d_direction with
             | `Neutral -> "  (not gated)"
             | `Higher_better | `Lower_better -> ""))
      v.v_deltas
  end;
  Format.fprintf ppf "regressions: %d@\n" v.v_regressions
