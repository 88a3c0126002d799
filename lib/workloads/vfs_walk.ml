(* The vfs-walk experiment: path resolution through the vnode layer and
   the name cache, measured in simulated cycles.

   One machine, one HPFS volume.  The driver builds a deep directory
   chain and a wide directory of small files, then walks them in phases:

     build       — mkdir the chain, create and fill the files;
     cold        — first stat of every path: misses fill the cache;
     hot         — the same set stat repeatedly: the repeated-lookup
                   phase whose hit rate is the acceptance number;
     deep-cached — the deepest path resolved again and again with the
                   cache on (each component is one charged hash probe);
     deep-raw    — the same walks with the cache off: every component is
                   a per-format directory scan through the block cache;
     concurrent  — one walker thread per CPU, each statting the whole
                   wide set, lookups racing across CPUs.

   deep_speedup = deep-raw cycles/op over deep-cached cycles/op.  The
   whole run can execute under Machcheck's vnode checker; a finding
   means the walk used a reclaimed vnode or a stale entry. *)

module F = Fileserver

let ok_exn = function Ok v -> v | Error e -> Scenario.fail_fs e

let deep_path depth =
  "/os2/"
  ^ String.concat "/" (List.init depth (Printf.sprintf "d%02d"))
  ^ "/leaf.dat"

let wide_path i = Printf.sprintf "/os2/wide/f%03d.dat" i

let run ?(depth = 12) ?(files = 48) ?(repeats = 6) ?(cpus = 4) () =
  if depth < 1 then invalid_arg "Vfs_walk.run: depth must be >= 1";
  Scenario.run { Scenario.base with ncpus = cpus } @@ fun e ->
  let m = e.m and k = e.k in
  let vfs = F.Vfs.create ~kernel:k () in
  ignore (Scenario.hpfs k vfs : F.Block_cache.t);
  let sem = F.Vfs.os2_semantics in
  let phases = ref [] in
  let measure name ops f =
    let s0 = F.Vfs.cache_stats vfs in
    let t0 = Machine.global_now m in
    f ();
    let cycles = Machine.global_now m - t0 in
    let s1 = F.Vfs.cache_stats vfs in
    let hits =
      s1.F.Namecache.cs_hits + s1.F.Namecache.cs_neg_hits
      - (s0.F.Namecache.cs_hits + s0.F.Namecache.cs_neg_hits)
    in
    let misses = s1.F.Namecache.cs_misses - s0.F.Namecache.cs_misses in
    let probes = hits + misses in
    let per_op =
      if ops = 0 then 0.0 else float_of_int cycles /. float_of_int ops
    and hit_rate =
      if probes = 0 then 0.0 else float_of_int hits /. float_of_int probes
    in
    phases :=
      ( name,
        (per_op, hit_rate),
        [ ("phase", Json.Str name); ("ops", Json.int ops);
          ("cycles", Json.int cycles);
          ("cycles_per_op", Json.fixed 1 per_op);
          ("cache_hits", Json.int hits); ("cache_misses", Json.int misses);
          ("hit_rate", Json.fixed 4 hit_rate) ] )
      :: !phases
  in
  let stat_all () =
    ignore (ok_exn (F.Vfs.stat vfs sem ~path:(deep_path depth)));
    for i = 0 to files - 1 do
      ignore (ok_exn (F.Vfs.stat vfs sem ~path:(wide_path i)))
    done
  in
  let deep_walks = 32 in
  let concurrent_ok = ref 0 in
  let driver = Mach.Kernel.task_create k ~name:"walker" () in
  let deep () =
    for _ = 1 to deep_walks do
      ignore (ok_exn (F.Vfs.stat vfs sem ~path:(deep_path depth)))
    done
  in
  Scenario.spawn e driver "drive" (fun () ->
      measure "build" (depth + 1 + files) (fun () ->
          let dir = ref "/os2" in
          for d = 0 to depth - 1 do
            dir := Printf.sprintf "%s/d%02d" !dir d;
            ignore (ok_exn (F.Vfs.mkdir vfs sem ~path:!dir))
          done;
          ignore (ok_exn (F.Vfs.create_file vfs sem ~path:(!dir ^ "/leaf.dat")));
          ignore (ok_exn (F.Vfs.mkdir vfs sem ~path:"/os2/wide"));
          for i = 0 to files - 1 do
            ignore (ok_exn (F.Vfs.create_file vfs sem ~path:(wide_path i)))
          done);
      (* drop the entries the creates primed, so "cold" is cold *)
      F.Vfs.set_namecache vfs false;
      F.Vfs.set_namecache vfs true;
      measure "cold" (1 + files) stat_all;
      measure "hot" (repeats * (1 + files)) (fun () ->
          for _ = 1 to repeats do
            stat_all ()
          done);
      measure "deep-cached" deep_walks deep;
      F.Vfs.set_namecache vfs false;
      measure "deep-raw" deep_walks deep;
      F.Vfs.set_namecache vfs true;
      (* racing walkers, one bound per CPU; the driver exits and the
         kernel runs until they drain *)
      for c = 0 to cpus - 1 do
        let task = Mach.Kernel.task_create k ~name:(Printf.sprintf "walk%d" c) () in
        Scenario.spawn e task ~cpu:c "walk" (fun () ->
            for i = 0 to files - 1 do
              if Result.is_ok (F.Vfs.stat vfs sem ~path:(wide_path i)) then
                incr concurrent_ok
            done)
      done);
  fun () ->
    (* cycles per op and hit rate of a phase *)
    let phase name =
      let _, typed, _ = List.find (fun (n, _, _) -> n = name) !phases in
      typed
    in
    let _, hot_hit_rate = phase "hot" in
    let cached, _ = phase "deep-cached" in
    let raw, _ = phase "deep-raw" in
    let deep_speedup = if cached > 0.0 then raw /. cached else 0.0 in
    let c = F.Vfs.cache_stats vfs in
    Experiment.result
      ~gates:
        [ Experiment.at_least "hot_hit_rate" hot_hit_rate 0.9;
          Experiment.at_least "deep_speedup" deep_speedup 2.0;
          Experiment.at_most "concurrent_failed"
            (float_of_int ((cpus * files) - !concurrent_ok))
            0.0 ]
      [
        ( "config",
          Json.Obj
            [ ("depth", Json.int depth); ("files", Json.int files);
              ("repeats", Json.int repeats); ("cpus", Json.int cpus) ] );
        ("phases", Json.rows (fun (_, _, row) -> row) (List.rev !phases));
        ("hot_hit_rate", Json.fixed 4 hot_hit_rate);
        ("deep_cached_cycles_per_op", Json.fixed 1 cached);
        ("deep_raw_cycles_per_op", Json.fixed 1 raw);
        ("deep_speedup", Json.fixed 2 deep_speedup);
        ( "concurrent",
          Json.Obj
            [ ("completed", Json.int !concurrent_ok);
              ("expected", Json.int (cpus * files)) ] );
        ("compromises", Json.int (F.Vfs.compromises vfs));
        ( "cache",
          Json.Obj
            [ ("capacity", Json.int c.F.Namecache.cs_capacity);
              ("entries", Json.int c.F.Namecache.cs_entries);
              ("insertions", Json.int c.F.Namecache.cs_insertions);
              ("evictions", Json.int c.F.Namecache.cs_evictions);
              ("invalidations", Json.int c.F.Namecache.cs_invalidations) ] );
      ]
