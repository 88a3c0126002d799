(* The experiment registry's machinery: one entry per experiment, sized
   per profile, and one loop that runs a profile over the entries, writes
   each BENCH_*.json through the one envelope writer, diffs smoke output
   against the checked-in baselines, and turns failed gates into one exit
   status. *)

type profile = Full | Smoke | Machcheck

type bound = At_least of float | At_most of float

type gate = { name : string; value : float; bound : bound; pass : bool }

let at_least name value b =
  { name; value; bound = At_least b; pass = value >= b }

let at_most name value b = { name; value; bound = At_most b; pass = value <= b }

type result = {
  body : (string * Json.t) list;
  seed : int option;
  table : (unit -> unit) option;
  check : Check.report option;
  gates : gate list;
}

let result ?seed ?(gates = []) ?table body =
  { body; seed; table; check = None; gates }

type entry = {
  name : string;
  file : string option;
  run : profile -> result option;
}

type sizes = {
  full : unit -> result;
  smoke : (unit -> result) option;
  machcheck : (unit -> result) option;
  checked : profile list;
}

(* Any Machcheck report gates on zero findings, whatever the experiment. *)
let findings_gate = function
  | Some rep ->
      [ at_most "machcheck_findings" (float (Check.total_findings rep)) 0.0 ]
  | None -> []

(* The checker is installed around the whole workload, so every machine
   it boots (and every supervised restart) attaches to it. *)
let make ?file name sizes =
  let pick = function
    | Full -> Some sizes.full
    | Smoke -> sizes.smoke
    | Machcheck -> sizes.machcheck
  in
  let run profile =
    Option.map
      (fun size ->
        Check.with_checker (profile = Machcheck || List.mem profile sizes.checked)
        @@ fun chk ->
        let r = size () in
        let check = Option.map Check.report chk in
        { r with check; gates = r.gates @ findings_gate check })
      (pick profile)
  in
  { name; file; run }

let hr title =
  Printf.printf "\n==== %s %s\n" title
    (String.make (max 1 (66 - String.length title)) '=')

(* The default table: the body a run writes, scalars and objects as
   "key: value" lines and every array of objects as a table with one
   column per key. *)
let print_body body =
  let text = function Json.Str s -> s | v -> Json.compact v in
  List.iter
    (fun (key, v) ->
      match v with
      | Json.Arr (Json.Obj first :: _ as rows) ->
          let cols = List.map fst first in
          let cell row c =
            Option.fold ~none:"" ~some:text (Json.member c row)
          in
          let widths =
            List.map
              (fun c ->
                List.fold_left
                  (fun w row -> max w (String.length (cell row c)))
                  (String.length c) rows)
              cols
          in
          let line cells =
            List.iter2 (Printf.printf " %*s") widths cells;
            print_newline ()
          in
          Printf.printf "%s:\n" key;
          line cols;
          List.iter (fun row -> line (List.map (cell row) cols)) rows
      | v -> Printf.printf "%s: %s\n" key (text v))
    body

let bound_text = function
  | At_least b -> Printf.sprintf ">= %g" b
  | At_most b -> Printf.sprintf "<= %g" b

(* One ["gates"] member per gate: value, bound and verdict. *)
let gate_fields prefix gates =
  List.map
    (fun (g : gate) ->
      ( prefix ^ g.name,
        Json.Obj
          [ ("value", Json.Num g.value);
            ("bound", Json.Str (bound_text g.bound));
            ("pass", Json.Bool g.pass) ] ))
    gates

let document name r =
  Run_meta.envelope ~experiment:name ?seed:r.seed
    (r.body
    @ Option.fold ~none:[]
        ~some:(fun rep -> [ ("machcheck", Check.to_json rep) ])
        r.check
    @ [ ("gates", Json.Obj (gate_fields "" r.gates)) ])

let write path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let print_gates name gates =
  List.iter
    (fun (g : gate) ->
      Printf.printf "gate %-40s %12g  %-10s %s\n" (name ^ "/" ^ g.name) g.value
        (bound_text g.bound)
        (if g.pass then "ok" else "FAILED"))
    gates

(* Exact diff of a smoke output against its checked-in baseline. *)
let diff_baseline file =
  let baseline = Filename.concat "smoke" file in
  match Bench_ab.compare_files ~a:baseline ~b:file ~threshold:0.0 with
  | Error e ->
      Printf.printf "%s: no usable baseline %s (%s)\n" file baseline e;
      false
  | Ok v when v.Bench_ab.v_regressions = 0 ->
      Printf.printf "%s: identical to %s\n" file baseline;
      true
  | Ok v ->
      Format.printf "%s differs from %s:@\n%a@?" file baseline
        Bench_ab.pp_verdict v;
      false

(* BENCH_check.json: every report of a machcheck run, and its gates. *)
let write_check ran =
  let reports =
    List.filter_map
      (fun (e, r) -> Option.map (fun rep -> (e.name, rep)) r.check)
      ran
  in
  let total =
    List.fold_left (fun n (_, rep) -> n + Check.total_findings rep) 0 reports
  in
  write "BENCH_check.json"
    (Run_meta.envelope ~experiment:"machcheck"
       [ ("total_findings", Json.int total);
         ( "workloads",
           Json.Obj
             (List.map (fun (name, rep) -> (name, Check.to_json rep)) reports)
         );
         ( "gates",
           Json.Obj
             (List.concat_map
                (fun (e, r) -> gate_fields (e.name ^ "/") r.gates)
                ran) ) ]);
  print_endline "wrote BENCH_check.json"

(* Runs one experiment's output steps; false when its smoke output
   differs from the baseline. *)
let report profile e r =
  (match (profile, r.table) with
  | Full, Some table -> table ()
  | Full, None ->
      hr e.name;
      print_body r.body
  | (Smoke | Machcheck), _ -> ());
  (match r.check with
  | Some rep when profile <> Smoke ->
      Format.printf "@[<v 2>%s:@,%a@]@." e.name Check.pp_report rep
  | Some _ | None -> ());
  print_gates e.name r.gates;
  match (profile, e.file) with
  | Machcheck, _ | _, None -> true
  | (Full | Smoke), Some file ->
      write file (document e.name r);
      Printf.printf "wrote %s\n" file;
      profile = Full || diff_baseline file

let run profile entries =
  let ran, files_ok =
    List.fold_left
      (fun (ran, ok) e ->
        match e.run profile with
        | None -> (ran, ok)
        | Some r ->
            let same = report profile e r in
            ((e, r) :: ran, ok && same))
      ([], true) entries
  in
  let ran = List.rev ran in
  if profile = Machcheck then write_check ran;
  let passed (_, r) = List.for_all (fun (g : gate) -> g.pass) r.gates in
  if files_ok && List.for_all passed ran then 0 else 1
