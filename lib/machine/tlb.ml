(* Entries live in [pages], replaced by exact LRU: the victim is the
   least recently used entry, the lowest index among entries never used,
   and [invalidate]/[flush] do not make an entry more recently used.
   Recency is an intrusive circular doubly linked list over the slots,
   closed by a sentinel at index [entries]: the sentinel's next is the
   head (the victim), its previous the tail (the entry used last).  It
   starts in index order, so never-used entries sit at the head lowest
   index first; a hit or an install moves its slot to the tail, and
   nothing else reorders the list.  That is the order per-entry stamps
   give (a fresh tick on every use, the lowest index on ties), without
   the scan for the smallest stamp.  Each link word packs
   [prev lsl 16 lor next], so the list costs one int per slot, as the
   stamps did.

   A hit must not scan the entries either, so a page index sits beside
   them: [hint] maps a page's hash bucket to the slot last installed or
   found there and [count] says how many resident pages hash to each
   bucket.  A hint is only trusted after checking [pages.(slot)]; an
   empty bucket proves a miss; a crowded bucket with a stale hint falls
   back to the scan.  The index only decides how a lookup is answered,
   never what the answer is. *)
type t = {
  page_bits : int;  (* log2 of the page size *)
  pages : int array;  (* -1 = invalid *)
  links : int array;  (* slot -> prev lsl 16 lor next; sentinel last *)
  hint : int array;  (* bucket -> slot, or -1 *)
  count : int array;  (* bucket -> resident pages hashing there *)
}

let next_mask = 0xffff

let create ~entries ~page_size =
  assert (entries > 0 && entries < next_mask);
  let rec log2 b = if 1 lsl b >= page_size then b else log2 (b + 1) in
  let page_bits = log2 0 in
  if 1 lsl page_bits <> page_size then
    invalid_arg "Tlb.create: page size is not a power of two";
  let rec up n = if n >= 4 * entries then n else up (2 * n) in
  let buckets = up 16 in
  (* slot i sits between i - 1 and i + 1, modulo the sentinel *)
  let links = Array.make (entries + 1) 0 in
  for i = 0 to entries do
    let prev = if i = 0 then entries else i - 1
    and next = if i = entries then 0 else i + 1 in
    links.(i) <- (prev lsl 16) lor next
  done;
  {
    page_bits;
    pages = Array.make entries (-1);
    links;
    hint = Array.make buckets (-1);
    count = Array.make buckets 0;
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

(* The slot holding [page], or -1. *)
let lookup t b page =
  let h = t.hint.(b) in
  if h >= 0 && t.pages.(h) = page then h
  else if t.count.(b) = 0 then -1
  else scan t b page

let unindex t slot =
  let page = t.pages.(slot) in
  if page >= 0 then begin
    let b = bucket t page in
    t.count.(b) <- t.count.(b) - 1;
    if t.hint.(b) = slot then t.hint.(b) <- -1
  end

(* Move [slot] to the most recently used end of the list. *)
let touch t slot =
  let l = t.links in
  let s = Array.length l - 1 in
  if slot <> l.(s) lsr 16 then begin
    let x = l.(slot) in
    let p = x lsr 16 and n = x land next_mask in
    l.(p) <- l.(p) land lnot next_mask lor n;
    l.(n) <- (p lsl 16) lor (l.(n) land next_mask);
    let tail = l.(s) lsr 16 in
    l.(tail) <- l.(tail) land lnot next_mask lor slot;
    l.(slot) <- (tail lsl 16) lor s;
    l.(s) <- (slot lsl 16) lor (l.(s) land next_mask)
  end

let access t vaddr =
  let page = page_of t vaddr in
  let b = bucket t page in
  let slot = lookup t b page in
  if slot >= 0 then begin
    touch t slot;
    true
  end
  else begin
    let v = t.links.(Array.length t.pages) land next_mask in
    unindex t v;
    t.pages.(v) <- page;
    touch t v;
    t.count.(b) <- t.count.(b) + 1;
    t.hint.(b) <- v;
    false
  end

let invalidate t vaddr =
  let page = page_of t vaddr in
  let b = bucket t page in
  let slot = lookup t b page in
  if slot >= 0 then begin
    unindex t slot;
    t.pages.(slot) <- -1
  end

(* Only resident pages have index entries to clear. *)
let flush t =
  for i = 0 to Array.length t.pages - 1 do
    let page = t.pages.(i) in
    if page >= 0 then begin
      let b = bucket t page in
      t.hint.(b) <- -1;
      t.count.(b) <- 0;
      t.pages.(i) <- -1
    end
  done

let resident t =
  Array.fold_left (fun acc p -> if p >= 0 then acc + 1 else acc) 0 t.pages
