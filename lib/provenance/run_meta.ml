(* Provenance stamped into every BENCH_*.json: which commit produced the
   numbers, which seed drove the run, and when.  [envelope] is the one
   place that writes it.  Memoized per process so
   every writer in one run agrees and so re-running a workload with the
   checker toggled emits byte-identical JSON (the determinism the tests
   assert). *)

let memo f =
  let cell = ref None in
  fun () ->
    match !cell with
    | Some v -> v
    | None ->
        let v = f () in
        cell := Some v;
        v

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

(* Resolve HEAD by hand ([.git/HEAD] -> ref file or packed-refs): the
   bench must not shell out, and the test sandbox has no .git at all —
   "unknown" is the honest answer there. *)
let git_rev =
  memo (fun () ->
      let rec find_git dir depth =
        if depth > 6 then None
        else
          let cand = Filename.concat dir ".git" in
          if Sys.file_exists cand && Sys.is_directory cand then Some cand
          else
            let parent = Filename.dirname dir in
            if parent = dir then None else find_git parent (depth + 1)
      in
      match find_git (Sys.getcwd ()) 0 with
      | None -> "unknown"
      | Some git -> (
          match read_file (Filename.concat git "HEAD") with
          | None -> "unknown"
          | Some head -> (
              let head = String.trim head in
              match String.index_opt head ' ' with
              | None -> head  (* detached: HEAD holds the hash *)
              | Some i -> (
                  let refname =
                    String.sub head (i + 1) (String.length head - i - 1)
                  in
                  match read_file (Filename.concat git refname) with
                  | Some hash -> String.trim hash
                  | None -> (
                      (* ref not loose: search packed-refs *)
                      match read_file (Filename.concat git "packed-refs") with
                      | None -> "unknown"
                      | Some packed ->
                          let hit =
                            List.find_opt
                              (fun line ->
                                match String.index_opt line ' ' with
                                | Some j ->
                                    String.sub line (j + 1)
                                      (String.length line - j - 1)
                                    = refname
                                | None -> false)
                              (String.split_on_char '\n' packed)
                          in
                          (match hit with
                          | Some line ->
                              String.sub line 0 (String.index line ' ')
                          | None -> "unknown"))))))

let timestamp =
  memo (fun () ->
      let tm = Unix.gmtime (Unix.gettimeofday ()) in
      Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
        (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
        tm.Unix.tm_sec)

let json ?(seed = 0) () =
  Json.Obj
    [
      ("git_rev", Json.Str (git_rev ())); ("seed", Json.int seed);
      ("timestamp", Json.Str (timestamp ()));
    ]

let envelope ~experiment ?seed fields =
  Json.to_string
    (Json.Obj
       (("experiment", Json.Str experiment)
       :: ("schema_version", Json.int 2)
       :: ("run", json ?seed ())
       :: fields))
