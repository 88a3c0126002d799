(* A small JSON reader and printer: enough to write the BENCH_*.json
   files and to read them back for the A/B diff (the repo deliberately
   has no JSON dependency). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int n = Num (float_of_int n)
let rows f l = Arr (List.map (fun x -> Obj (f x)) l)

(* Rounded through the decimal text "%.<digits>f" would print, so the
   leaf reads back exactly as a fixed-precision writer's would. *)
let fixed digits x = Num (float_of_string (Printf.sprintf "%.*f" digits x))

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> raise (Bad (Printf.sprintf "expected %c at %d" c !pos))
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (pos := !pos + l; v)
    else raise (Bad (Printf.sprintf "bad literal at %d" !pos))
  in
  let string_body () =
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> raise (Bad "unterminated string")
      | Some '"' -> advance (); Buffer.contents b
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some 'n' -> Buffer.add_char b '\n'
          | Some 't' -> Buffer.add_char b '\t'
          | Some c -> Buffer.add_char b c
          | None -> raise (Bad "unterminated escape"));
          advance ();
          go ()
      | Some c -> Buffer.add_char b c; advance (); go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let is_num_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e'
      || c = 'E'
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    if !pos = start then raise (Bad (Printf.sprintf "bad number at %d" start));
    float_of_string (String.sub s start (!pos - start))
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> advance (); Obj (sequence '}' member)
    | Some '[' -> advance (); Arr (sequence ']' value)
    | Some '"' -> advance (); Str (string_body ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (number ())
    | None -> raise (Bad "unexpected end of input")
  and member () =
    skip_ws ();
    expect '"';
    let key = string_body () in
    skip_ws ();
    expect ':';
    (key, value ())
  (* comma-separated items up to [close] *)
  and sequence : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    skip_ws ();
    if peek () = Some close then (advance (); [])
    else
      let rec more acc =
        let x = item () in
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); more (x :: acc)
        | Some c when c = close -> advance (); List.rev (x :: acc)
        | _ -> raise (Bad (Printf.sprintf "expected , or %c at %d" close !pos))
      in
      more []
  in
  try
    let v = value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing garbage at %d" !pos)
    else Ok v
  with Bad msg | Failure msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* --- printing ------------------------------------------------------------ *)

(* The shortest of %.15g/%.16g/%.17g that reads back as the same float,
   so a printed leaf parses to exactly the value that was built. *)
let number x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else
    List.find
      (fun s -> float_of_string s = x)
      (List.map (fun digits -> Printf.sprintf "%.*g" digits x) [ 15; 16; 17 ])

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec compact = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num x -> number x
  | Str s -> quote s
  | Arr [] -> "[]"
  | Obj [] -> "{}"
  | Arr items -> "[ " ^ String.concat ", " (List.map compact items) ^ " ]"
  | Obj fields ->
      "{ "
      ^ String.concat ", "
          (List.map (fun (k, v) -> quote k ^ ": " ^ compact v) fields)
      ^ " }"

(* A container goes on one line when it fits in [width] columns or sits
   two levels deep (one results row per line), otherwise one member per
   line. *)
let width = 100

let to_string v =
  let b = Buffer.create 4096 in
  let rec go indent v =
    let flat = compact v in
    let block opening closing items =
      let pad = String.make (indent + 2) ' ' in
      Buffer.add_string b opening;
      List.iteri
        (fun i (key, x) ->
          Buffer.add_string b (if i = 0 then "\n" else ",\n");
          Buffer.add_string b (pad ^ key);
          go (indent + 2) x)
        items;
      Buffer.add_string b ("\n" ^ String.make indent ' ' ^ closing)
    in
    match v with
    | _ when indent >= 4 || indent + String.length flat <= width ->
        Buffer.add_string b flat
    | Arr (_ :: _ as items) -> block "[" "]" (List.map (fun x -> ("", x)) items)
    | Obj (_ :: _ as fields) ->
        block "{" "}" (List.map (fun (k, x) -> (quote k ^ ": ", x)) fields)
    | _ -> Buffer.add_string b flat
  in
  go 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b
