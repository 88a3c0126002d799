(** Fully-associative translation lookaside buffer with LRU replacement.

    Keyed on virtual page number.  The simulated architecture has untagged
    TLB entries (x86 CR3 semantics), so an address-space switch must
    {!flush} — this is the mechanism behind the RPC path's extra page
    walks in Table 2. *)

type t

val create : entries:int -> page_size:int -> t
(** @raise Invalid_argument unless [page_size] is a power of two. *)

val access : t -> int -> bool
(** [access t vaddr] is [true] when the page holding [vaddr] is resident;
    on miss the translation is installed, evicting the least recently
    used entry (the lowest index on ties; {!invalidate} and {!flush} do
    not make an entry more recently used).
    @raise Invalid_argument when [vaddr] is negative, here and in
    {!invalidate}. *)

val invalidate : t -> int -> unit
(** [invalidate t vaddr] drops the translation for the page holding
    [vaddr], if resident.  Other entries are untouched — this is the
    single-page [invlpg] a remap shootdown issues, not a full flush. *)

val flush : t -> unit
val resident : t -> int
