(* Entries live in [pages]/[stamps], replaced by exact LRU: the victim is
   the entry with the smallest stamp, the lowest index on ties, and
   [invalidate]/[flush] leave stamps alone.  A hit must not scan the
   entries, so a page index sits beside them: [hint] maps a page's hash
   bucket to the slot last installed or found there and [count] says how
   many resident pages hash to each bucket.  A hint is only trusted after
   checking [pages.(slot)]; an empty bucket proves a miss; a crowded
   bucket with a stale hint falls back to the scan.  The index only
   decides how a lookup is answered, never what the answer is. *)
type t = {
  page_bits : int;  (* log2 of the page size *)
  pages : int array;  (* -1 = invalid *)
  stamps : int array;
  hint : int array;  (* bucket -> slot, or -1 *)
  count : int array;  (* bucket -> resident pages hashing there *)
  mutable tick : int;
}

let create ~entries ~page_size =
  assert (entries > 0);
  let rec log2 b = if 1 lsl b >= page_size then b else log2 (b + 1) in
  let page_bits = log2 0 in
  if 1 lsl page_bits <> page_size then
    invalid_arg "Tlb.create: page size is not a power of two";
  let rec up n = if n >= 4 * entries then n else up (2 * n) in
  let buckets = up 16 in
  {
    page_bits;
    pages = Array.make entries (-1);
    stamps = Array.make entries 0;
    hint = Array.make buckets (-1);
    count = Array.make buckets 0;
    tick = 0;
  }

let page_of t vaddr =
  if vaddr < 0 then invalid_arg "Tlb: negative address";
  vaddr lsr t.page_bits

let bucket t page = page land (Array.length t.hint - 1)

(* The slot holding [page], found by scanning; re-aims the bucket's hint.
   Only reached for a crowded bucket whose hint is stale. *)
let scan t b page =
  let n = Array.length t.pages in
  let i = ref 0 in
  while !i < n && t.pages.(!i) <> page do
    incr i
  done;
  if !i < n then begin
    t.hint.(b) <- !i;
    !i
  end
  else -1

let unindex t slot =
  let page = t.pages.(slot) in
  if page >= 0 then begin
    let b = bucket t page in
    t.count.(b) <- t.count.(b) - 1;
    if t.hint.(b) = slot then t.hint.(b) <- -1
  end

let access t vaddr =
  let page = page_of t vaddr in
  t.tick <- t.tick + 1;
  let b = bucket t page in
  let h = t.hint.(b) in
  let slot =
    if h >= 0 && t.pages.(h) = page then h
    else if t.count.(b) = 0 then -1
    else scan t b page
  in
  if slot >= 0 then begin
    t.stamps.(slot) <- t.tick;
    true
  end
  else begin
    let victim = ref 0 in
    for i = 1 to Array.length t.pages - 1 do
      if t.stamps.(i) < t.stamps.(!victim) then victim := i
    done;
    let v = !victim in
    unindex t v;
    t.pages.(v) <- page;
    t.stamps.(v) <- t.tick;
    t.count.(b) <- t.count.(b) + 1;
    t.hint.(b) <- v;
    false
  end

let invalidate t vaddr =
  let page = page_of t vaddr in
  for i = 0 to Array.length t.pages - 1 do
    if t.pages.(i) = page then begin
      unindex t i;
      t.pages.(i) <- -1
    end
  done

let flush t =
  Array.fill t.pages 0 (Array.length t.pages) (-1);
  Array.fill t.hint 0 (Array.length t.hint) (-1);
  Array.fill t.count 0 (Array.length t.count) 0

let entries t = Array.length t.pages

let resident t =
  Array.fold_left (fun acc p -> if p >= 0 then acc + 1 else acc) 0 t.pages
