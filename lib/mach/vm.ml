open Ktypes

let null_backing =
  {
    bs_name = "null";
    bs_page_in = (fun _ _ k -> k ());
    bs_page_out = (fun _ _ k -> k ());
  }

let set_default_backing (sys : Sched.t) bs = sys.default_backing <- Some bs

let object_create (sys : Sched.t) ?backing ?(tag = "anon") ~bytes () =
  let obj =
    {
      obj_id = sys.next_obj_id;
      obj_size = pages_of_bytes bytes * page_size;
      obj_pages = Hashtbl.create 8;
      obj_backing = backing;
      obj_shadow_of = None;
      obj_tag = tag;
      obj_unmap_hook = None;
    }
  in
  sys.next_obj_id <- sys.next_obj_id + 1;
  obj

let find_entry map addr =
  List.find_opt
    (fun e -> addr >= e.ent_start && addr < e.ent_start + e.ent_size)
    map.entries

let overlaps_entry map start size =
  List.exists
    (fun e -> start < e.ent_start + e.ent_size && e.ent_start < start + size)
    map.entries

let insert_entry (sys : Sched.t) map entry =
  Ktext.exec sys.ktext [ Ktext.vm_map_enter sys.ktext ];
  map.entries <-
    List.sort (fun a b -> compare a.ent_start b.ent_start) (entry :: map.entries)

let get_page obj idx =
  match Hashtbl.find_opt obj.obj_pages idx with
  | Some p -> p
  | None ->
      let p =
        { pg_resident = false; pg_dirty = false; pg_wired = false;
          pg_written_back = false; pg_stamp = 0 }
      in
      Hashtbl.replace obj.obj_pages idx p;
      p

(* The object that actually owns page [idx]: walk the shadow chain to
   the first object holding a private copy (or the chain's bottom).
   Remap re-shares lengthen chains only across sender write epochs, so
   walks stay short. *)
let rec chain_owner obj idx =
  if Hashtbl.mem obj.obj_pages idx then obj
  else match obj.obj_shadow_of with
    | Some src -> chain_owner src idx
    | None -> obj

let backing_of (sys : Sched.t) obj =
  match obj.obj_backing with Some bs -> Some bs | None -> sys.default_backing

(* Evict one page to make room: FIFO scan for a resident, unwired page.
   Dirty pages go out through the pager asynchronously (the disk queue
   delays subsequent page-ins, which is how thrashing hurts). *)
let rec evict_one (sys : Sched.t) =
  match Queue.take_opt sys.resident_fifo with
  | None -> ()  (* nothing evictable: allow transient overcommit *)
  | Some (obj, idx) -> (
      match Hashtbl.find_opt obj.obj_pages idx with
      | Some p when p.pg_resident && not p.pg_wired ->
          p.pg_resident <- false;
          sys.pages_resident <- sys.pages_resident - 1;
          Ktext.exec sys.ktext [ Ktext.pageout_path sys.ktext ];
          if p.pg_dirty then begin
            p.pg_dirty <- false;
            p.pg_written_back <- true;
            sys.pageout_count <- sys.pageout_count + 1;
            match backing_of sys obj with
            | Some bs -> bs.bs_page_out obj idx (fun () -> ())
            | None -> ()
          end
      | Some _ | None -> evict_one sys)

let zero_fill_cost (sys : Sched.t) addr =
  (* clearing a frame: one store per line over the page, top line first *)
  let cpu = sys.machine.Machine.cpu in
  for line = (page_size / 32) - 1 downto 0 do
    Machine.Cpu.store cpu ~addr:(addr + (line * 32)) ~bytes:32
  done

let page_in (sys : Sched.t) obj idx =
  sys.pagein_count <- sys.pagein_count + 1;
  match backing_of sys obj with
  | None -> ()
  | Some bs -> (
      match sys.current with
      | None -> bs.bs_page_in obj idx (fun () -> ())
      | Some _ ->
          let th = Sched.self () in
          let done_ = ref false in
          bs.bs_page_in obj idx (fun () ->
              done_ := true;
              Sched.wake sys th);
          if not !done_ then ignore (Sched.block "page-in" : kern_return))

let make_resident (sys : Sched.t) obj idx ~addr ~fill =
  let p = get_page obj idx in
  if not p.pg_resident then begin
    if sys.pages_resident >= sys.page_limit then evict_one sys;
    Ktext.exec sys.ktext [ Ktext.vm_page_insert sys.ktext ];
    (match fill with
    | `Zero -> zero_fill_cost sys addr
    | `Pager -> page_in sys obj idx
    | `None -> ());
    p.pg_resident <- true;
    sys.pages_resident <- sys.pages_resident + 1;
    Queue.add (obj, idx) sys.resident_fifo
  end;
  p

(* Resolve a fault at [addr] within [entry]. *)
let fault (sys : Sched.t) entry addr ~write =
  sys.fault_count <- sys.fault_count + 1;
  Ktext.exec sys.ktext [ Ktext.vm_fault_path sys.ktext ];
  let obj = entry.ent_obj in
  let idx = (entry.ent_offset + (addr - entry.ent_start)) / page_size in
  let page_addr = addr / page_size * page_size in
  if write && entry.ent_cow then begin
    let had_private = Hashtbl.mem obj.obj_pages idx in
    (* copy the page from the shadow source into a private page *)
    let src_stamp =
      match obj.obj_shadow_of with
      | Some src when not had_private ->
          let owner = chain_owner src idx in
          let sp = Hashtbl.find_opt owner.obj_pages idx in
          let src_resident =
            match sp with Some p -> p.pg_resident | None -> false
          in
          if not src_resident then
            ignore
              (make_resident sys owner idx ~addr:page_addr
                 ~fill:(if (match sp with Some p -> p.pg_written_back | None -> false)
                        || owner.obj_backing <> None
                        then `Pager else `Zero)
                : page);
          (* physical copy of the source page; cost uses a shifted pseudo
             source address so both sides stream through the D-cache *)
          Ktext.copy sys.ktext ~src:(page_addr lxor 0x0200_0000) ~dst:page_addr
            ~bytes:page_size;
          (match Hashtbl.find_opt owner.obj_pages idx with
          | Some sp -> sp.pg_stamp
          | None -> 0)
      | Some _ | None ->
          (* an anonymous page under copy protection (or a re-break of a
             page already private): push the old contents aside and take
             a private copy *)
          Ktext.copy sys.ktext ~src:(page_addr lxor 0x0100_0000) ~dst:page_addr
            ~bytes:page_size;
          (match Hashtbl.find_opt obj.obj_pages idx with
          | Some p -> p.pg_stamp
          | None -> 0)
    in
    let p = make_resident sys obj idx ~addr:page_addr ~fill:`None in
    p.pg_dirty <- true;
    p.pg_stamp <- src_stamp
  end
  else begin
    match obj.obj_shadow_of with
    | Some _ when not (Hashtbl.mem obj.obj_pages idx) ->
        (* read-through along the COW shadow chain to the page's owner *)
        let owner = chain_owner obj idx in
        let sp = Hashtbl.find_opt owner.obj_pages idx in
        let fill =
          match sp with
          | Some p when p.pg_written_back -> `Pager
          | Some _ | None ->
              if owner.obj_backing <> None then `Pager else `Zero
        in
        ignore (make_resident sys owner idx ~addr:page_addr ~fill : page)
    | Some _ | None ->
        let p = get_page obj idx in
        let fill =
          if p.pg_written_back || obj.obj_backing <> None then `Pager
          else `Zero
        in
        let p = make_resident sys obj idx ~addr:page_addr ~fill in
        if write then p.pg_dirty <- true
  end

let page_present (sys : Sched.t) entry addr ~write =
  ignore sys;
  let obj = entry.ent_obj in
  let idx = (entry.ent_offset + (addr - entry.ent_start)) / page_size in
  if write && entry.ent_cow then
    (* a COW entry needs a private dirty page before writes are cheap *)
    match Hashtbl.find_opt obj.obj_pages idx with
    | Some p -> p.pg_resident && p.pg_dirty
    | None -> false
  else
    match Hashtbl.find_opt obj.obj_pages idx with
    | Some p when p.pg_resident -> true
    | Some _ -> false
    | None -> (
        (* shadow read-through counts as present if the owner's copy is in *)
        match obj.obj_shadow_of with
        | Some _ -> (
            let owner = chain_owner obj idx in
            match Hashtbl.find_opt owner.obj_pages idx with
            | Some p -> p.pg_resident
            | None -> false)
        | None -> false)

let allocate (sys : Sched.t) task ~bytes ?(eager = false) () =
  let size = pages_of_bytes bytes * page_size in
  let addr = Sched.virtual_alloc sys ~bytes:size in
  let obj =
    object_create sys ~tag:(task.task_name ^ ".anon") ~bytes:size ()
  in
  let entry =
    {
      ent_start = addr;
      ent_size = size;
      ent_obj = obj;
      ent_offset = 0;
      ent_prot = prot_rw;
      ent_cow = false;
      ent_eager = eager;
      ent_coerced = false;
    }
  in
  insert_entry sys task.vm entry;
  if eager then
    for i = 0 to (size / page_size) - 1 do
      ignore
        (make_resident sys obj i ~addr:(addr + (i * page_size)) ~fill:`Zero
          : page)
    done;
  addr

let map_object (sys : Sched.t) task obj ?at ?(offset = 0) ~bytes
    ?(prot = prot_rw) ?(cow = false) ?(coerced = false) () =
  let size = pages_of_bytes bytes * page_size in
  let addr =
    match at with
    | Some a ->
        if overlaps_entry task.vm a size then raise (Kern_error Kern_no_space);
        a
    | None -> Sched.virtual_alloc sys ~bytes:size
  in
  let entry =
    {
      ent_start = addr;
      ent_size = size;
      ent_obj = obj;
      ent_offset = offset;
      ent_prot = prot;
      ent_cow = cow;
      ent_eager = false;
      ent_coerced = coerced;
    }
  in
  insert_entry sys task.vm entry;
  addr

let allocate_coerced (sys : Sched.t) tasks ~bytes =
  let size = pages_of_bytes bytes * page_size in
  let obj = object_create sys ~tag:"coerced" ~bytes:size () in
  let addr = Sched.virtual_alloc sys ~bytes:size in
  List.iter
    (fun task ->
      ignore
        (map_object sys task obj ~at:addr ~bytes:size ~coerced:true () : int))
    tasks;
  addr

let release_entry_pages (sys : Sched.t) entry =
  let obj = entry.ent_obj in
  let first = entry.ent_offset / page_size in
  let last = (entry.ent_offset + entry.ent_size - 1) / page_size in
  for idx = first to last do
    match Hashtbl.find_opt obj.obj_pages idx with
    | Some p when p.pg_resident ->
        p.pg_resident <- false;
        sys.pages_resident <- sys.pages_resident - 1
    | Some _ | None -> ()
  done

let deallocate (sys : Sched.t) task ~addr =
  match find_entry task.vm addr with
  | None -> raise (Kern_error Kern_invalid_argument)
  | Some entry ->
      Ktext.exec sys.ktext [ Ktext.vm_map_enter sys.ktext ];
      (* the range is leaving this map: any moved-out bookkeeping for it
         is now moot, and a mapped-out object tells its owner *)
      Mcheck.remap_clear sys task ~addr:entry.ent_start ~bytes:entry.ent_size;
      (match entry.ent_obj.obj_unmap_hook with
      | Some hook ->
          entry.ent_obj.obj_unmap_hook <- None;
          hook ()
      | None -> ());
      (* only unshared anonymous entries release pages; coerced/shared
         objects stay resident for their other mappings *)
      if not entry.ent_coerced then release_entry_pages sys entry;
      task.vm.entries <-
        List.filter (fun e -> e.ent_start <> entry.ent_start) task.vm.entries

let touch (sys : Sched.t) task ~addr ?(write = false) ~bytes () =
  if bytes > 0 then begin
    match find_entry task.vm addr with
    | None -> raise (Kern_error Kern_invalid_argument)
    | Some entry ->
        if addr + bytes > entry.ent_start + entry.ent_size then
          raise (Kern_error Kern_invalid_argument);
        if write && not entry.ent_prot.write then
          raise (Kern_error Kern_protection_failure);
        if write then Mcheck.remap_write sys task ~addr ~bytes;
        let first = addr / page_size and last = (addr + bytes - 1) / page_size in
        for pg = first to last do
          let a = pg * page_size in
          let a = max a addr in
          if not (page_present sys entry a ~write) then fault sys entry a ~write
          else if write then begin
            let idx = (entry.ent_offset + (a - entry.ent_start)) / page_size in
            match Hashtbl.find_opt entry.ent_obj.obj_pages idx with
            | Some p -> p.pg_dirty <- true
            | None -> ()
          end
        done;
        let cpu = sys.machine.Machine.cpu in
        if write then Machine.Cpu.store cpu ~addr ~bytes
        else Machine.Cpu.load cpu ~addr ~bytes
  end

let shadow_object (sys : Sched.t) orig ~tag =
  let obj =
    {
      obj_id = sys.next_obj_id;
      obj_size = orig.obj_size;
      obj_pages = Hashtbl.create 8;
      obj_backing = None;
      obj_shadow_of = Some orig;
      obj_tag = tag;
      obj_unmap_hook = None;
    }
  in
  sys.next_obj_id <- sys.next_obj_id + 1;
  obj

let virtual_copy (sys : Sched.t) ~src_task ~addr ~bytes ~dst_task =
  match find_entry src_task.vm addr with
  | None -> raise (Kern_error Kern_invalid_argument)
  | Some src_entry ->
      let pages = pages_of_bytes bytes in
      Ktext.exec_n sys.ktext pages (Ktext.virtual_copy_per_page sys.ktext);
      let first =
        (src_entry.ent_offset + (addr - src_entry.ent_start)) / page_size
      in
      (* Mach semantics: the SOURCE side is also copy-protected — the
         sender's next write to the range must break, which is the
         hidden cost of the virtual-copy strategy under buffer reuse.
         Freeze the sender's object and redirect the entry onto a shadow
         of it, so the break lands in a private page and the receiver
         keeps seeing the snapshot; an entry still frozen from the last
         send (no write broke a page) shares the same snapshot instead
         of growing the chain. *)
      let base =
        match src_entry.ent_obj.obj_shadow_of with
        | Some under
          when src_entry.ent_cow
               && Hashtbl.length src_entry.ent_obj.obj_pages = 0 ->
            under
        | Some _ | None ->
            let orig = src_entry.ent_obj in
            src_entry.ent_obj <- shadow_object sys orig ~tag:"ool-src-shadow";
            src_entry.ent_cow <- true;
            orig
      in
      for idx = first to first + pages - 1 do
        match Hashtbl.find_opt base.obj_pages idx with
        | Some p -> p.pg_dirty <- false  (* re-protect *)
        | None -> ()
      done;
      let dst_shadow = shadow_object sys base ~tag:"ool-shadow" in
      map_object sys dst_task dst_shadow ~offset:(first * page_size)
        ~bytes:(pages * page_size) ~cow:true ()

(* --- Zero-copy remap ---------------------------------------------------- *)
(* Large page-aligned payloads cross the task boundary by map
   manipulation: [remap_move] donates the pages outright, [remap_cow]
   shares them copy-on-write.  Both charge one map-entry chunk plus a
   TLB shootdown — never a per-byte copy loop. *)

let require_page_aligned ~addr ~bytes =
  if not (page_aligned ~addr ~bytes) then
    raise (Kern_error Kern_invalid_argument)

let entry_covering map ~addr ~bytes =
  match find_entry map addr with
  | Some e when addr + bytes <= e.ent_start + e.ent_size -> e
  | Some _ | None -> raise (Kern_error Kern_invalid_argument)

(* Rebuild the source map so [addr, addr+bytes) is served by
   [range_entry], preserving any head/tail remainder of the clipped
   original entry.  Pure list surgery: the cost is the remap chunk the
   callers charge. *)
let replace_range map entry ~addr ~bytes ~range_entry =
  let head =
    if addr > entry.ent_start then
      Some { entry with ent_size = addr - entry.ent_start }
    else None
  in
  let tail =
    let range_end = addr + bytes
    and ent_end = entry.ent_start + entry.ent_size in
    if range_end < ent_end then
      Some
        { entry with
          ent_start = range_end;
          ent_size = ent_end - range_end;
          ent_offset = entry.ent_offset + (range_end - entry.ent_start);
        }
    else None
  in
  map.entries <-
    List.sort
      (fun a b -> compare a.ent_start b.ent_start)
      ((range_entry :: Option.to_list head)
      @ Option.to_list tail
      @ List.filter (fun e -> e != entry) map.entries)

let shootdown (sys : Sched.t) ~addr ~bytes =
  Machine.Cpu.tlb_shootdown sys.machine.Machine.cpu ~addr
    ~pages:(bytes / page_size)

let remap_move (sys : Sched.t) ~src_task ~addr ~bytes ~dst_task =
  require_page_aligned ~addr ~bytes;
  let entry = entry_covering src_task.vm ~addr ~bytes in
  let orig = entry.ent_obj in
  let first = (entry.ent_offset + (addr - entry.ent_start)) / page_size in
  Ktext.exec1 sys.ktext (Ktext.vm_remap_entry sys.ktext);
  Mcheck.remap_moved sys src_task ~addr ~bytes;
  (* the receiver maps the donated object over the moved range *)
  let dst_addr =
    map_object sys dst_task orig ~offset:(first * page_size) ~bytes ()
  in
  (* the sender's range becomes fresh zero-fill memory *)
  let fresh =
    object_create sys ~tag:(src_task.task_name ^ ".moved-out") ~bytes ()
  in
  let range_entry =
    {
      ent_start = addr;
      ent_size = bytes;
      ent_obj = fresh;
      ent_offset = 0;
      ent_prot = entry.ent_prot;
      ent_cow = false;
      ent_eager = false;
      ent_coerced = false;
    }
  in
  replace_range src_task.vm entry ~addr ~bytes ~range_entry;
  shootdown sys ~addr ~bytes;
  dst_addr

let remap_cow (sys : Sched.t) ~src_task ~addr ~bytes ~dst_task =
  require_page_aligned ~addr ~bytes;
  let entry = entry_covering src_task.vm ~addr ~bytes in
  Ktext.exec1 sys.ktext (Ktext.vm_remap_entry sys.ktext);
  let src_offset = entry.ent_offset + (addr - entry.ent_start) in
  let base, dst_offset =
    match entry.ent_obj.obj_shadow_of with
    | Some under
      when entry.ent_cow && Hashtbl.length entry.ent_obj.obj_pages = 0 ->
        (* still frozen since the last remap (no write broke a page):
           share the same snapshot instead of growing the shadow chain *)
        (under, src_offset)
    | Some _ | None ->
        (* freeze the range: the sender's entry becomes a shadow of the
           original, so its next write breaks into a private page and the
           receiver keeps seeing the snapshot *)
        let orig = entry.ent_obj in
        let src_shadow = shadow_object sys orig ~tag:"remap-cow-src" in
        let range_entry =
          {
            ent_start = addr;
            ent_size = bytes;
            ent_obj = src_shadow;
            ent_offset = src_offset;
            ent_prot = entry.ent_prot;
            ent_cow = true;
            ent_eager = false;
            ent_coerced = false;
          }
        in
        replace_range src_task.vm entry ~addr ~bytes ~range_entry;
        (orig, src_offset)
  in
  let dst_shadow = shadow_object sys base ~tag:"remap-cow-dst" in
  let dst_addr =
    map_object sys dst_task dst_shadow ~offset:dst_offset ~bytes ~cow:true ()
  in
  shootdown sys ~addr ~bytes;
  dst_addr

let set_unmap_hook obj hook = obj.obj_unmap_hook <- Some hook

(* --- Page stamps -------------------------------------------------------- *)
(* The simulator carries no real memory contents; a one-word stamp per
   page stands in for them so transfer correctness (COW isolation,
   move-leaves-zero) is testable.  Reading or writing a stamp performs
   the same fault work a real access would. *)

let write_stamp (sys : Sched.t) task ~addr stamp =
  touch sys task ~addr ~write:true ~bytes:1 ();
  match find_entry task.vm addr with
  | None -> ()
  | Some e ->
      let idx = (e.ent_offset + (addr - e.ent_start)) / page_size in
      (get_page e.ent_obj idx).pg_stamp <- stamp

let read_stamp (sys : Sched.t) task ~addr =
  touch sys task ~addr ~bytes:1 ();
  match find_entry task.vm addr with
  | None -> 0
  | Some e -> (
      let idx = (e.ent_offset + (addr - e.ent_start)) / page_size in
      let owner = chain_owner e.ent_obj idx in
      match Hashtbl.find_opt owner.obj_pages idx with
      | Some p -> p.pg_stamp
      | None -> 0)

let resident_pages (sys : Sched.t) = sys.pages_resident

let committed_bytes task =
  List.fold_left
    (fun acc e ->
      if e.ent_eager then acc + e.ent_size
      else
        let first = e.ent_offset / page_size in
        let last = (e.ent_offset + e.ent_size - 1) / page_size in
        let resident = ref 0 in
        for idx = first to last do
          match Hashtbl.find_opt e.ent_obj.obj_pages idx with
          | Some p when p.pg_resident -> incr resident
          | Some _ | None -> ()
        done;
        acc + (!resident * page_size))
    0 task.vm.entries

let entry_count task = List.length task.vm.entries

let page_faults (sys : Sched.t) = sys.fault_count
let page_ins (sys : Sched.t) = sys.pagein_count
let page_outs (sys : Sched.t) = sys.pageout_count
