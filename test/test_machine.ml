(* Unit tests for the simulated-hardware substrate. *)

open Machine

let test_cache_hit_miss () =
  let c = Cache.create { Config.size = 1024; line = 32; assoc = 2 } in
  Alcotest.(check bool) "first access misses" false (Cache.access c 0x100);
  Alcotest.(check bool) "second access hits" true (Cache.access c 0x100);
  Alcotest.(check bool) "same line hits" true (Cache.access c 0x110);
  Alcotest.(check bool) "different line misses" false (Cache.access c 0x200)

let test_cache_conflict_lru () =
  (* 1 KiB, 32-byte lines, 2-way: 16 sets, set repeats every 512 bytes *)
  let c = Cache.create { Config.size = 1024; line = 32; assoc = 2 } in
  ignore (Cache.access c 0x000 : bool);
  ignore (Cache.access c 0x200 : bool);
  Alcotest.(check bool) "two ways hold both" true (Cache.access c 0x000);
  ignore (Cache.access c 0x400 : bool);  (* evicts LRU = 0x200 *)
  Alcotest.(check bool) "survivor stays" true (Cache.access c 0x000);
  Alcotest.(check bool) "victim evicted" false (Cache.access c 0x200)

let test_cache_flush () =
  let c = Cache.create { Config.size = 1024; line = 32; assoc = 2 } in
  ignore (Cache.access c 0x40 : bool);
  Alcotest.(check int) "one line resident" 1 (Cache.resident c);
  Cache.flush c;
  Alcotest.(check int) "flushed" 0 (Cache.resident c);
  Alcotest.(check bool) "miss after flush" false (Cache.access c 0x40)

let test_tlb () =
  let t = Tlb.create ~entries:2 ~page_size:4096 in
  Alcotest.(check bool) "cold miss" false (Tlb.access t 0x1000);
  Alcotest.(check bool) "hit" true (Tlb.access t 0x1fff);
  ignore (Tlb.access t 0x2000 : bool);
  ignore (Tlb.access t 0x3000 : bool);  (* evicts LRU page 1 *)
  Alcotest.(check bool) "LRU evicted" false (Tlb.access t 0x1000);
  Tlb.flush t;
  Alcotest.(check int) "flush empties" 0 (Tlb.resident t)

let test_layout () =
  let l = Layout.create Config.pentium_133 in
  let a = Layout.alloc l ~name:"a" ~kind:Layout.Code ~size:100 in
  let b = Layout.alloc l ~name:"b" ~kind:Layout.Data ~size:5000 in
  Alcotest.(check bool) "page aligned" true (a.Layout.base mod 4096 = 0);
  Alcotest.(check int) "size rounded" 4096 a.Layout.size;
  Alcotest.(check bool) "no overlap" true (b.Layout.base >= Layout.end_of a);
  Alcotest.(check bool) "find works" true (Layout.find l "b" = Some b);
  let d = Layout.alloc l ~name:"dev" ~kind:Layout.Device ~size:4096 in
  Alcotest.(check bool) "device above memory" true
    (d.Layout.base >= Config.pentium_133.Config.memory_bytes)

let test_layout_exhaustion () =
  let small = Config.with_memory Config.pentium_133 ~bytes:(64 * 1024) in
  let l = Layout.create small in
  Alcotest.check_raises "out of memory" (Failure "exhausted")
    (fun () ->
      try ignore (Layout.alloc l ~name:"big" ~kind:Layout.Data ~size:(1024 * 1024) : Layout.region)
      with Failure _ -> raise (Failure "exhausted"))

let test_event_queue () =
  let q = Event_queue.create () in
  let log = ref [] in
  Event_queue.schedule q ~at:200 (fun () -> log := 200 :: !log);
  Event_queue.schedule q ~at:100 (fun () -> log := 100 :: !log);
  Event_queue.schedule q ~at:100 (fun () -> log := 101 :: !log);
  Alcotest.(check (option int)) "next" (Some 100) (Event_queue.next_time q);
  let fired = Event_queue.run_due q ~now:150 in
  Alcotest.(check int) "two fired" 2 fired;
  Alcotest.(check (list int)) "FIFO within a time" [ 101; 100 ] !log;
  ignore (Event_queue.run_due q ~now:500 : int);
  Alcotest.(check (list int)) "all fired" [ 200; 101; 100 ] !log

let test_cpu_charges () =
  let m = create Config.pentium_133 in
  let r = Layout.alloc m.layout ~name:"code" ~kind:Layout.Code ~size:4096 in
  let before = Perf.snapshot (Cpu.perf m.cpu) in
  execute m [ Footprint.fetch r ~bytes:400 () ];
  let d = Perf.diff (Perf.snapshot (Cpu.perf m.cpu)) before in
  Alcotest.(check int) "instructions = bytes/4" 100 d.Perf.instructions;
  Alcotest.(check bool) "cycles charged" true (d.Perf.cycles > 0);
  Alcotest.(check bool) "cold misses" true (d.Perf.icache_misses > 0);
  (* steady state: same fetch again is all hits *)
  let before = Perf.snapshot (Cpu.perf m.cpu) in
  execute m [ Footprint.fetch r ~bytes:400 () ];
  let d2 = Perf.diff (Perf.snapshot (Cpu.perf m.cpu)) before in
  Alcotest.(check int) "warm: no misses" 0 d2.Perf.icache_misses;
  Alcotest.(check bool) "warm cheaper" true (d2.Perf.cycles < d.Perf.cycles)

let test_write_through_bus () =
  let m = create Config.pentium_133 in
  let before = Perf.snapshot (Cpu.perf m.cpu) in
  execute m [ Footprint.store ~addr:0x8000 ~bytes:64 ];
  let d = Perf.diff (Perf.snapshot (Cpu.perf m.cpu)) before in
  (* 16 words * write_bus_cycles(4) plus the line fills *)
  Alcotest.(check bool) "stores hit the bus" true (d.Perf.bus_cycles >= 64)

let test_as_switch_flushes_tlb () =
  let m = create Config.pentium_133 in
  execute m [ Footprint.load ~addr:0x9000 ~bytes:4 ];
  execute m [ Footprint.load ~addr:0x9000 ~bytes:4 ];
  let before = Perf.snapshot (Cpu.perf m.cpu) in
  execute m [ Footprint.Switch_address_space ];
  execute m [ Footprint.load ~addr:0x9000 ~bytes:4 ];
  let d = Perf.diff (Perf.snapshot (Cpu.perf m.cpu)) before in
  Alcotest.(check int) "switch counted" 1 d.Perf.address_space_switches;
  Alcotest.(check bool) "page walk after flush" true (d.Perf.tlb_misses >= 1)

let test_disk_roundtrip () =
  let m = create Config.pentium_133 in
  let data = Bytes.make 512 'x' in
  let done_ = ref false in
  Disk.write m.disk ~block:10 data (fun () -> done_ := true);
  while Machine.advance_to_next_event m do () done;
  Alcotest.(check bool) "write completed" true !done_;
  let got = ref Bytes.empty in
  Disk.read m.disk ~block:10 ~count:1 (fun b -> got := b);
  while Machine.advance_to_next_event m do () done;
  Alcotest.(check bytes) "data persisted" data !got

let test_disk_latency_and_interrupts () =
  let m = create Config.pentium_133 in
  let t0 = now m in
  let done_at = ref 0 in
  Disk.read m.disk ~block:0 ~count:4 (fun _ -> done_at := now m);
  while Machine.advance_to_next_event m do () done;
  let g = Disk.default_geometry in
  let expected = g.Disk.seek_cycles + (4 * g.Disk.transfer_cycles_per_block) in
  Alcotest.(check int) "service time" expected (!done_at - t0);
  let p = Perf.snapshot (Cpu.perf m.cpu) in
  Alcotest.(check int) "interrupt delivered" 1 p.Perf.interrupts

let test_disk_fifo_queue () =
  let m = create Config.pentium_133 in
  let order = ref [] in
  Disk.read m.disk ~block:0 ~count:1 (fun _ -> order := 1 :: !order);
  Disk.read m.disk ~block:100 ~count:1 (fun _ -> order := 2 :: !order);
  Disk.read m.disk ~block:200 ~count:1 (fun _ -> order := 3 :: !order);
  while Machine.advance_to_next_event m do () done;
  Alcotest.(check (list int)) "FIFO order" [ 3; 2; 1 ] !order

(* DMA moves block_size / 4 words per block, 8 words per bus cycle: a
   one-block transfer books the same bus cycles in either direction. *)
let test_disk_dma_bus_cycles () =
  let m = create Config.pentium_133 in
  let bus_cycles_of f =
    let before = (Perf.snapshot (Cpu.perf m.cpu)).Perf.bus_cycles in
    f ();
    while Machine.advance_to_next_event m do () done;
    (Perf.snapshot (Cpu.perf m.cpu)).Perf.bus_cycles - before
  in
  let read = bus_cycles_of (fun () -> Disk.read m.disk ~block:3 ~count:1 ignore) in
  let write =
    bus_cycles_of (fun () -> Disk.write m.disk ~block:3 (Bytes.make 512 'w') ignore)
  in
  Alcotest.(check int) "one-block read" (512 / 4 / 8) read;
  Alcotest.(check int) "one-block write = read" read write

(* --- request merging ------------------------------------------------------ *)

let drain m = while Machine.advance_to_next_event m do () done

(* Three writes that continue each other queue behind the write the disk
   is serving: they go out as one transfer, one positioning cost plus
   three block transfers, and their continuations run in FIFO order. *)
let test_disk_merges_contiguous_writes () =
  let m = create Config.pentium_133 in
  let g = Disk.default_geometry in
  let t0 = now m in
  let order = ref [] and last_at = ref 0 in
  List.iter
    (fun b ->
      Disk.write m.disk ~block:b (Bytes.make 512 (Char.chr (65 + (b mod 26))))
        (fun () ->
          order := b :: !order;
          last_at := now m))
    [ 0; 20; 21; 22 ];
  drain m;
  Alcotest.(check (list int)) "FIFO continuations" [ 0; 20; 21; 22 ] (List.rev !order);
  Alcotest.(check int) "two transfers" 2 (Disk.requests_served m.disk);
  Alcotest.(check int) "every write applied" 4 (Disk.writes_applied m.disk);
  Alcotest.(check int) "one seek per transfer"
    ((2 * g.Disk.seek_cycles) + (4 * g.Disk.transfer_cycles_per_block))
    (!last_at - t0);
  Alcotest.(check int) "one interrupt per transfer" 2
    (Perf.snapshot (Cpu.perf m.cpu)).Perf.interrupts;
  Alcotest.(check bytes) "each write landed" (Bytes.make 512 'V')
    (Disk.read_now m.disk ~block:21 ~count:1)

(* A barrier, a gap or a change of kind ends a run; merged reads each
   get their own blocks. *)
let test_disk_merge_boundaries () =
  let m = create Config.pentium_133 in
  Disk.write_now m.disk ~block:15 (Bytes.make 512 'r');
  Disk.write_now m.disk ~block:16 (Bytes.make 512 's');
  let order = ref [] in
  let note tag = order := tag :: !order in
  let w b = Disk.write m.disk ~block:b (Bytes.make 512 'w') (fun () -> note b) in
  let got = Hashtbl.create 2 in
  let r b =
    Disk.read m.disk ~block:b ~count:1 (fun data ->
        Hashtbl.replace got b data;
        note b)
  in
  w 0;
  w 10;
  w 11;
  Disk.barrier m.disk (fun () -> note (-1));
  w 12;
  w 14;
  r 15;
  r 16;
  drain m;
  Alcotest.(check (list int)) "FIFO continuations" [ 0; 10; 11; -1; 12; 14; 15; 16 ]
    (List.rev !order);
  (* [0] [10 11] [barrier] [12] [14] [read 15 16] *)
  Alcotest.(check int) "six transfers" 6 (Disk.requests_served m.disk);
  Alcotest.(check bytes) "first merged read" (Bytes.make 512 'r') (Hashtbl.find got 15);
  Alcotest.(check bytes) "second merged read" (Bytes.make 512 's') (Hashtbl.find got 16)

(* Merging moves the instant writes reach the media, never which of them
   land or in what order: a run of queued writes with a power cut or a
   torn write at constituent [k] leaves the same image and write count as
   the same writes served one at a time. *)
let merged_faults_match_serial =
  let g = { Disk.default_geometry with Disk.blocks = 64; block_size = 512 } in
  QCheck.Test.make ~name:"disk: a fault inside a merged run lands as if served alone"
    ~count:60
    QCheck.(triple (int_range 1 8) (int_range 1 10) (pair bool (int_bound 10_000)))
    (fun (n, k, (cut, r)) ->
      let serve ~merged =
        let m = create ~disk_geometry:g Config.pentium_133 in
        let seen = ref 0 in
        Disk.set_write_interceptor m.disk
          (Some
             (fun ~block:_ ~data:_ ->
               incr seen;
               if !seen <> k then Disk.Wf_pass
               else if cut then Disk.Wf_power_cut
               else Disk.Wf_torn r));
        let submit b =
          Disk.write m.disk ~block:b (Bytes.make 512 (Char.chr (97 + b))) (fun () -> ());
          if not merged then drain m
        in
        submit 0;
        for b = 10 to 10 + n - 1 do submit b done;
        drain m;
        (Disk.read_now m.disk ~block:0 ~count:g.Disk.blocks, Disk.writes_applied m.disk,
         Disk.requests_served m.disk)
      in
      let img_m, applied_m, served_m = serve ~merged:true in
      let img_s, applied_s, served_s = serve ~merged:false in
      Bytes.equal img_m img_s && applied_m = applied_s && served_s = n + 1 && served_m = 2)

let test_disk_bounds () =
  let m = create Config.pentium_133 in
  Alcotest.check_raises "out of range" (Invalid_argument "range")
    (fun () ->
      try Disk.read m.disk ~block:(-1) ~count:1 (fun _ -> ())
      with Invalid_argument _ -> raise (Invalid_argument "range"))

let test_framebuffer () =
  let m = create Config.pentium_133 in
  let fb = m.framebuffer in
  let before = Perf.snapshot (Cpu.perf m.cpu) in
  Framebuffer.fill_rect fb ~x:10 ~y:10 ~w:20 ~h:5 ~pixel:'z';
  let d = Perf.diff (Perf.snapshot (Cpu.perf m.cpu)) before in
  Alcotest.(check char) "pixel set" 'z' (Framebuffer.pixel fb ~x:15 ~y:12);
  Alcotest.(check char) "outside untouched" '\000' (Framebuffer.pixel fb ~x:5 ~y:5);
  Alcotest.(check int) "pixels counted" 100 (Framebuffer.pixels_written fb);
  Alcotest.(check bool) "uncached stores cost bus" true (d.Perf.bus_cycles > 0)

let test_irq_spurious () =
  let m = create Config.pentium_133 in
  Irq.raise_line m.irq 5;
  Alcotest.(check int) "spurious counted" 1 (Irq.spurious m.irq);
  let hits = ref 0 in
  Irq.register m.irq ~line:5 ~name:"t" (fun () -> incr hits);
  Irq.raise_line m.irq 5;
  Alcotest.(check int) "handler ran" 1 !hits

let test_perf_diff () =
  let p = Perf.create () in
  Perf.add_instructions p 10;
  Perf.add_cycles p 25;
  let s1 = Perf.snapshot p in
  Perf.add_instructions p 5;
  Perf.add_cycles p 10;
  let d = Perf.diff (Perf.snapshot p) s1 in
  Alcotest.(check int) "inst delta" 5 d.Perf.instructions;
  Alcotest.(check int) "cycle delta" 10 d.Perf.cycles;
  Alcotest.(check (float 0.01)) "cpi" 2.0 (Perf.cpi d)

(* Warm fetch+load+store triples, round-robin over the CPUs of an
   [ncpus]-CPU pentium_133, over 2 KB of code and data that every cache
   and TLB holds.  After one warm-up pass, runs [triples] more and
   returns the minor words and the words allocated directly in the major
   heap meanwhile, and the furthest CPU clock. *)
let fetch_load_store_alloc ~ncpus ~triples =
  let config = { Config.pentium_133 with Config.ncpus } in
  let bus = Bus.create ~ncpus config in
  let cpus = Array.init ncpus (fun id -> Cpu.create ~id ~bus config) in
  let layout = Layout.create config in
  let code = Layout.alloc layout ~name:"code" ~kind:Layout.Code ~size:4096 in
  let data = Layout.alloc layout ~name:"data" ~kind:Layout.Data ~size:4096 in
  let run n =
    for i = 0 to n - 1 do
      let cpu = cpus.(i mod ncpus) and off = i * 64 mod 2048 in
      Cpu.fetch cpu code ~offset:off ~bytes:64;
      Cpu.load cpu ~addr:(data.Layout.base + off) ~bytes:32;
      Cpu.store cpu ~addr:(data.Layout.base + off) ~bytes:32
    done
  in
  run 1024;
  let _, _, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  run triples;
  let minor = Gc.minor_words () -. minor0 in
  let _, _, major1 = Gc.counters () in
  let clock = Array.fold_left (fun m c -> Float.max m (Cpu.now_exact c)) 0. cpus in
  (minor, major1 -. major0, clock)

let test_warm_path_allocation () =
  let minor, major, _ = fetch_load_store_alloc ~ncpus:1 ~triples:100_000 in
  Alcotest.(check (float 0.)) "1 CPU: no minor words" 0. minor;
  Alcotest.(check (float 0.)) "1 CPU: no major words" 0. major;
  (* On two CPUs the bus books demand per capacity window and tracks the
     64 data lines in its directory.  The warm-up gave those lines their
     directory leaf, so only the window table may allocate when it grows:
     two arrays of at most 4 slots per window, doubled, so at most 16
     words per window. *)
  let minor, major, clock = fetch_load_store_alloc ~ncpus:2 ~triples:200_000 in
  let windows = int_of_float (clock /. Bus.window) + 1 in
  Alcotest.(check (float 0.)) "2 CPUs: no minor words" 0. minor;
  Alcotest.(check bool)
    (Printf.sprintf "2 CPUs: %.0f major words for %d windows" major windows)
    true
    (major <= float_of_int (16 * (windows + 1)))

(* The directory allocates one leaf per 4 KB block on the first write
   into it, and nothing after. *)
let test_directory_leaf_allocation () =
  let bus = Bus.create ~ncpus:2 Config.pentium_133 in
  let write line = ignore (Bus.note_access bus ~cpu:0 ~line ~write:true : bool) in
  let words f =
    let minor0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. minor0
  in
  let first = words (fun () -> write 0x5000) in
  Alcotest.(check bool) (Printf.sprintf "first write: one leaf (%.0f words)" first) true
    (first > 0. && first <= float_of_int (2 + (4096 / 32 / (Sys.word_size / 8))));
  Alcotest.(check (float 0.)) "same block: no words" 0.
    (words (fun () -> write 0x5fe0; write 0x5000));
  Alcotest.(check (float 0.)) "reads of unwritten blocks: no words" 0.
    (words (fun () ->
         ignore (Bus.note_access bus ~cpu:1 ~line:0x9000 ~write:false : bool);
         ignore (Bus.note_access bus ~cpu:1 ~line:0x40000000 ~write:false : bool)))

(* --- differential tests: the O(1) models against linear-scan references --- *)
(* The references are the plain models the hot path replaced: a closure
   scan over each set's ways, a scan over every TLB entry, and
   polymorphic hashtables with float demand on the bus.  Random sequences
   must give the same answer op for op. *)

module Ref_cache = struct
  type t = { line : int; sets : int; tags : int array array; stamps : int array array;
             mutable tick : int }

  let create (g : Config.cache_geometry) =
    let sets = g.size / (g.line * g.assoc) in
    { line = g.line; sets; tags = Array.init sets (fun _ -> Array.make g.assoc (-1));
      stamps = Array.init sets (fun _ -> Array.make g.assoc 0); tick = 0 }

  let access t addr =
    let line_addr = addr / t.line in
    let set = line_addr mod t.sets and tag = line_addr / t.sets in
    t.tick <- t.tick + 1;
    let tags = t.tags.(set) and stamps = t.stamps.(set) in
    let rec find i = if i >= Array.length tags then -1 else if tags.(i) = tag then i else find (i + 1) in
    let way = find 0 in
    if way >= 0 then (stamps.(way) <- t.tick; true)
    else begin
      let best = ref 0 in
      for i = 1 to Array.length tags - 1 do
        if stamps.(i) < stamps.(!best) then best := i
      done;
      tags.(!best) <- tag;
      stamps.(!best) <- t.tick;
      false
    end

  let probe t addr =
    let line_addr = addr / t.line in
    Array.mem (line_addr / t.sets) t.tags.(line_addr mod t.sets)

  let flush t = Array.iter (fun w -> Array.fill w 0 (Array.length w) (-1)) t.tags

  let resident t =
    Array.fold_left (Array.fold_left (fun a tag -> if tag >= 0 then a + 1 else a)) 0 t.tags
end

module Ref_tlb = struct
  type t = { page_size : int; pages : int array; stamps : int array; mutable tick : int }

  let create ~entries ~page_size =
    { page_size; pages = Array.make entries (-1); stamps = Array.make entries 0; tick = 0 }

  let access t vaddr =
    let page = vaddr / t.page_size in
    t.tick <- t.tick + 1;
    let n = Array.length t.pages in
    let rec find i = if i >= n then None else if t.pages.(i) = page then Some i else find (i + 1) in
    match find 0 with
    | Some i -> t.stamps.(i) <- t.tick; true
    | None ->
        let victim = ref 0 in
        for i = 1 to n - 1 do
          if t.stamps.(i) < t.stamps.(!victim) then victim := i
        done;
        t.pages.(!victim) <- page;
        t.stamps.(!victim) <- t.tick;
        false

  let invalidate t vaddr =
    let page = vaddr / t.page_size in
    Array.iteri (fun i p -> if p = page then t.pages.(i) <- -1) t.pages

  let flush t = Array.fill t.pages 0 (Array.length t.pages) (-1)
  let resident t = Array.fold_left (fun a p -> if p >= 0 then a + 1 else a) 0 t.pages
end

module Ref_bus = struct
  type t = { occupied : (int, float) Hashtbl.t; writers : (int, int) Hashtbl.t }

  let create () = { occupied = Hashtbl.create 16; writers = Hashtbl.create 16 }

  let acquire t ~now ~bus_cycles =
    let w = int_of_float (now /. Bus.window) in
    let before = Option.value ~default:0. (Hashtbl.find_opt t.occupied w) in
    let c = float_of_int bus_cycles in
    Hashtbl.replace t.occupied w (before +. c);
    Float.max 0. (before +. c -. Bus.window) -. Float.max 0. (before -. Bus.window)

  let note_access t ~cpu ~line ~write =
    let miss = match Hashtbl.find_opt t.writers line with Some w -> w <> cpu | None -> false in
    if write then Hashtbl.replace t.writers line cpu
    else if miss then Hashtbl.remove t.writers line;
    miss
end

type mem_op = Access of int | Invalidate of int | Flush

(* Addresses crowd a few sets and pages so that hits, conflict misses
   and LRU evictions all happen, with now and then a far address. *)
let mem_ops_gen page =
  let open QCheck.Gen in
  let addr =
    frequency
      [ (8, map2 (fun p lo -> (p * 4096) + (lo * 32)) page (int_bound 7));
        (1, int_bound 0xffffff) ]
  in
  list_size (int_range 1 3000)
    (frequency
       [ (30, map (fun a -> Access a) addr); (2, map (fun a -> Invalidate a) addr);
         (1, return Flush) ])

let same_cache_as_reference name (g : Config.cache_geometry) =
  QCheck.Test.make ~name ~count:60 (QCheck.make (mem_ops_gen (QCheck.Gen.int_bound 6))) (fun ops ->
      let c = Cache.create g and r = Ref_cache.create g in
      List.for_all
        (fun op ->
          (match op with
          | Access a -> Cache.access c a = Ref_cache.access r a
          | Invalidate a -> Cache.probe c a = Ref_cache.probe r a
          | Flush -> Cache.flush c; Ref_cache.flush r; true)
          && Cache.resident c = Ref_cache.resident r)
        ops)

let tlb_matches_reference name ~entries ~count ops =
  QCheck.Test.make ~name ~count (QCheck.make ops)
    (fun ops ->
      let t = Tlb.create ~entries ~page_size:4096 and r = Ref_tlb.create ~entries ~page_size:4096 in
      List.for_all
        (fun op ->
          (match op with
          | Access a -> Tlb.access t a = Ref_tlb.access r a
          | Invalidate a -> Tlb.invalidate t a; Ref_tlb.invalidate r a; true
          | Flush -> Tlb.flush t; Ref_tlb.flush r; true)
          && Tlb.resident t = Ref_tlb.resident r)
        ops)

let same_tlb_as_reference name ~entries =
  (* four candidate pages per slot, four per bucket of the page index
     (it has 4 x entries buckets), so buckets crowd and hints go stale *)
  let page =
    QCheck.Gen.(map2 (fun b k -> b + (k * 4 * entries)) (int_bound (entries - 1)) (int_bound 3))
  in
  tlb_matches_reference name ~entries ~count:60 (mem_ops_gen page)

(* Long runs over twice as many pages as the TLB holds, so every pass
   evicts, with flushes and single-page invalidates between installs:
   the recency list must keep picking the victim the stamps pick. *)
let same_tlb_over_long_runs name ~entries =
  let ops =
    let open QCheck.Gen in
    let addr = map2 (fun p off -> (p * 4096) + off) (int_bound (2 * entries)) (int_bound 4095) in
    list_size (int_range 5_000 20_000)
      (frequency
         [ (40, map (fun a -> Access a) addr); (3, map (fun a -> Invalidate a) addr);
           (1, return Flush) ])
  in
  tlb_matches_reference name ~entries ~count:10 ops

let same_bus_as_reference =
  let op =
    QCheck.Gen.(
      pair bool
        (quad (int_bound 3) (int_bound 63) bool (pair (int_bound 400_000) (int_bound 40))))
  in
  QCheck.Test.make ~name:"bus: directory and windows match the hashtable model" ~count:60
    (QCheck.make QCheck.Gen.(list_size (int_range 1 3000) op))
    (fun ops ->
      let b = Bus.create ~ncpus:4 Config.pentium_133 and r = Ref_bus.create () in
      List.for_all
        (fun (is_access, (cpu, line, write, (now, n))) ->
          if is_access then
            Bus.note_access b ~cpu ~line:(line * 32) ~write
            = Ref_bus.note_access r ~cpu ~line:(line * 32) ~write
          else
            (* half-cycle clocks, as the 0.5-cycle store penalty leaves them *)
            let now = float_of_int now /. 2. in
            let window_index = int_of_float (now /. Bus.window) in
            float_of_int (Bus.acquire b ~window_index ~bus_cycles:(n * 40))
            = Ref_bus.acquire r ~now ~bus_cycles:(n * 40))
        ops)

(* Lines scattered over many 4 KB directory leaves and far past the
   16 MB the directory initially covers, written and read by four CPUs. *)
let bus_directory_spans_leaves =
  let line =
    QCheck.Gen.(
      oneof
        [ map (fun l -> l * 32) (int_bound 511);
          map2 (fun b l -> (b * 4096) + (l * 32)) (int_bound 8191) (int_bound 3);
          map (fun l -> l * 32) (int_bound (1 lsl 25)) ])
  in
  QCheck.Test.make ~name:"bus: directory leaves and growth match the hashtable model" ~count:40
    (QCheck.make QCheck.Gen.(list_size (int_range 1 3000) (triple (int_bound 3) line bool)))
    (fun ops ->
      let b = Bus.create ~ncpus:4 Config.pentium_133 and r = Ref_bus.create () in
      List.for_all
        (fun (cpu, line, write) ->
          Bus.note_access b ~cpu ~line ~write = Ref_bus.note_access r ~cpu ~line ~write)
        ops)

let test_bus_reset () =
  let bus = Bus.create ~ncpus:2 Config.pentium_133 in
  (* fill window 3, so a stale memo or count would stall the next booking *)
  ignore (Bus.acquire bus ~window_index:3 ~bus_cycles:(2 * int_of_float Bus.window) : int);
  Alcotest.(check bool) "full window stalls" true
    (Bus.acquire bus ~window_index:3 ~bus_cycles:40 > 0);
  ignore (Bus.note_access bus ~cpu:0 ~line:0x2040 ~write:true : bool);
  ignore (Bus.note_access bus ~cpu:0 ~line:0x4000000 ~write:true : bool);
  Bus.reset bus;
  Alcotest.(check int) "same window after reset: no stall" 0
    (Bus.acquire bus ~window_index:3 ~bus_cycles:40);
  Alcotest.(check bool) "directory forgot the writer" false
    (Bus.note_access bus ~cpu:1 ~line:0x2040 ~write:false);
  Alcotest.(check bool) "and the one past its initial size" false
    (Bus.note_access bus ~cpu:1 ~line:0x4000000 ~write:false)

(* The window table starts with 1024 slots and doubles; the memo of the
   last booked window must follow it through every growth. *)
let test_bus_memo_across_growth () =
  let bus = Bus.create ~ncpus:2 Config.pentium_133 and r = Ref_bus.create () in
  let book w n =
    let now = float_of_int w *. Bus.window in
    Alcotest.(check int)
      (Printf.sprintf "window %d" w)
      (int_of_float (Ref_bus.acquire r ~now ~bus_cycles:n))
      (Bus.acquire bus ~window_index:w ~bus_cycles:n)
  in
  for w = 0 to 5000 do
    book w 3000;
    book w 3000;
    if w mod 7 = 0 then book (w / 2) 5000;
    book w 3000
  done

(* The disk keeps its image in chunks allocated on first non-zero
   write; every read must see what a flat image would hold, through
   synchronous writes, queued writes and the torn and bit-rot faults. *)
type disk_op =
  | Write_now of int * int * char
  | Write of int * int * char * Disk.write_fault
  | Read_now of int * int

let sparse_disk_matches_flat_image =
  let g = { Disk.default_geometry with Disk.blocks = 512; block_size = 512 } in
  let op =
    let open QCheck.Gen in
    (* chunks hold 128 blocks: straddle their edges often *)
    let block = oneof [ int_bound 511; map (fun c -> (c * 128) - 1) (int_range 1 3) ] in
    let extent = map2 (fun b n -> (min b 510, min n (512 - min b 510))) block (int_range 1 3) in
    let fill = oneof [ return '\000'; map Char.chr (int_range 1 255) ] in
    let fault =
      frequency
        [ (3, return Disk.Wf_pass); (1, map (fun r -> Disk.Wf_torn r) (int_bound 10_000));
          (1, map (fun r -> Disk.Wf_bit_rot r) (int_bound 10_000)) ]
    in
    frequency
      [ (3, map2 (fun (b, n) c -> Write_now (b, n, c)) extent fill);
        (3, map3 (fun (b, n) c f -> Write (b, n, c, f)) extent fill fault);
        (2, map (fun (b, n) -> Read_now (b, n)) extent) ]
  in
  QCheck.Test.make ~name:"disk: sparse image reads as a flat one" ~count:40
    (QCheck.make QCheck.Gen.(list_size (int_range 1 60) op))
    (fun ops ->
      let m = create ~disk_geometry:g Config.pentium_133 in
      let flat = Bytes.make (g.Disk.blocks * 512) '\000' in
      let next_fault = ref Disk.Wf_pass in
      Disk.set_write_interceptor m.disk (Some (fun ~block:_ ~data:_ -> !next_fault));
      List.for_all
        (function
          | Write_now (b, n, c) ->
              Disk.write_now m.disk ~block:b (Bytes.make (n * 512) c);
              Bytes.fill flat (b * 512) (n * 512) c;
              true
          | Write (b, n, c, f) ->
              next_fault := f;
              Disk.write m.disk ~block:b (Bytes.make (n * 512) c) (fun () -> ());
              while Machine.advance_to_next_event m do () done;
              let len = n * 512 in
              (match f with
              | Disk.Wf_torn r -> Bytes.fill flat (b * 512) (r mod (len / 4) * 4) c
              | Disk.Wf_bit_rot r ->
                  Bytes.fill flat (b * 512) len c;
                  let bit = r mod (len * 8) in
                  let off = (b * 512) + (bit / 8) in
                  Bytes.set flat off
                    (Char.chr (Char.code (Bytes.get flat off) lxor (1 lsl (bit mod 8))))
              | _ -> Bytes.fill flat (b * 512) len c);
              true
          | Read_now (b, n) ->
              Bytes.equal (Disk.read_now m.disk ~block:b ~count:n)
                (Bytes.sub flat (b * 512) (n * 512)))
        ops
      && Bytes.equal (Disk.read_now m.disk ~block:0 ~count:g.Disk.blocks) flat)

let qtest = QCheck_alcotest.to_alcotest

let suite =
  [
    Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache conflict LRU" `Quick test_cache_conflict_lru;
    Alcotest.test_case "cache flush" `Quick test_cache_flush;
    Alcotest.test_case "tlb" `Quick test_tlb;
    Alcotest.test_case "layout" `Quick test_layout;
    Alcotest.test_case "layout exhaustion" `Quick test_layout_exhaustion;
    Alcotest.test_case "event queue" `Quick test_event_queue;
    Alcotest.test_case "cpu charges" `Quick test_cpu_charges;
    Alcotest.test_case "write-through bus" `Quick test_write_through_bus;
    Alcotest.test_case "AS switch flushes TLB" `Quick test_as_switch_flushes_tlb;
    Alcotest.test_case "disk roundtrip" `Quick test_disk_roundtrip;
    Alcotest.test_case "disk latency+irq" `Quick test_disk_latency_and_interrupts;
    Alcotest.test_case "disk FIFO" `Quick test_disk_fifo_queue;
    Alcotest.test_case "disk bounds" `Quick test_disk_bounds;
    Alcotest.test_case "disk DMA bus cycles" `Quick test_disk_dma_bus_cycles;
    Alcotest.test_case "framebuffer" `Quick test_framebuffer;
    Alcotest.test_case "irq spurious" `Quick test_irq_spurious;
    Alcotest.test_case "perf diff" `Quick test_perf_diff;
    Alcotest.test_case "warm path allocation" `Quick test_warm_path_allocation;
    qtest (same_cache_as_reference "cache: pentium_133 I/D geometry matches the scan model"
             Config.pentium_133.Config.dcache);
    qtest (same_cache_as_reference "cache: ppc604_133 I/D geometry matches the scan model"
             Config.ppc604_133.Config.dcache);
    qtest (same_tlb_as_reference "tlb: 64 entries match the scan model"
             ~entries:Config.pentium_133.Config.tlb_entries);
    qtest (same_tlb_as_reference "tlb: 128 entries match the scan model"
             ~entries:Config.ppc604_133.Config.tlb_entries);
    Alcotest.test_case "directory leaf allocation" `Quick test_directory_leaf_allocation;
    Alcotest.test_case "bus reset clears directory and memo" `Quick test_bus_reset;
    Alcotest.test_case "bus window memo across table growth" `Quick
      test_bus_memo_across_growth;
    qtest (same_tlb_over_long_runs "tlb: 64 entries match the scan model over long runs"
             ~entries:Config.pentium_133.Config.tlb_entries);
    qtest (same_tlb_over_long_runs "tlb: 128 entries match the scan model over long runs"
             ~entries:Config.ppc604_133.Config.tlb_entries);
    qtest same_bus_as_reference;
    qtest bus_directory_spans_leaves;
    qtest sparse_disk_matches_flat_image;
    Alcotest.test_case "disk merges contiguous queued writes" `Quick
      test_disk_merges_contiguous_writes;
    Alcotest.test_case "disk merge ends at a barrier, gap or kind" `Quick
      test_disk_merge_boundaries;
    qtest merged_faults_match_serial;
  ]
