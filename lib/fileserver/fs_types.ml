(* Common file-system types shared by the physical file systems, the
   vnode layer and the file server. *)

type fs_error =
  | E_not_found
  | E_exists
  | E_no_space
  | E_name_too_long
  | E_bad_name
  | E_not_dir
  | E_is_dir
  | E_dir_not_empty
  | E_bad_handle
  | E_read_only
  | E_io of string

let fs_error_to_string = function
  | E_not_found -> "not found"
  | E_exists -> "exists"
  | E_no_space -> "no space"
  | E_name_too_long -> "name too long"
  | E_bad_name -> "bad name"
  | E_not_dir -> "not a directory"
  | E_is_dir -> "is a directory"
  | E_dir_not_empty -> "directory not empty"
  | E_bad_handle -> "bad handle"
  | E_read_only -> "read-only"
  | E_io s -> "I/O error: " ^ s

type file_id = int

type stat = {
  st_id : file_id;
  st_size : int;
  st_is_dir : bool;
  st_blocks : int;
}

(* Semantics profile of a physical file system: the constraints the
   on-disk format imposes on the logical layer (the paper's point about
   FAT's 8.3 names). *)
type format_limits = {
  fl_format : string;
  fl_max_name : int;
  fl_case_sensitive : bool;
  fl_preserves_case : bool;
  fl_eight_dot_three : bool;
  fl_journalled : bool;
}

(* What a physical file system reports after crash recovery: journal
   replay volume plus any fsck-style invariant violations found in the
   recovered image.  A clean recovery has an empty findings list. *)
type recover_report = {
  rr_journal_txns : int;
  rr_journal_blocks : int;
  rr_fsck_findings : string list;
}

let clean_recovery =
  { rr_journal_txns = 0; rr_journal_blocks = 0; rr_fsck_findings = [] }

let merge_recovery a b =
  {
    rr_journal_txns = a.rr_journal_txns + b.rr_journal_txns;
    rr_journal_blocks = a.rr_journal_blocks + b.rr_journal_blocks;
    rr_fsck_findings = a.rr_fsck_findings @ b.rr_fsck_findings;
  }

(* The physical-file-system operations record — the extended vnode
   architecture's per-format plug. *)
type pfs = {
  pfs_limits : format_limits;
  pfs_root : file_id;
  pfs_lookup : dir:file_id -> string -> (file_id, fs_error) result;
  pfs_create : dir:file_id -> string -> is_dir:bool -> (file_id, fs_error) result;
  pfs_remove : dir:file_id -> string -> (unit, fs_error) result;
  pfs_readdir : dir:file_id -> (string list, fs_error) result;
  pfs_stat : file_id -> (stat, fs_error) result;
  pfs_read : file_id -> off:int -> len:int -> (bytes, fs_error) result;
  (* Zero-copy read path: assemble whole blocks into mapped-out cache
     pool pages and return [(pool_addr, map_bytes, data)], where
     [map_bytes] is the page-rounded extent to remap into the client.
     [Ok None] means the format (or the pool) cannot serve the request
     zero-copy and the caller should fall back to [pfs_read]. *)
  pfs_map_pool : Mach.Ktypes.task -> unit;
  pfs_read_paged :
    file_id -> off:int -> len:int ->
    ((int * int * bytes) option, fs_error) result;
  pfs_release_paged : addr:int -> bytes:int -> unit;
  pfs_write : file_id -> off:int -> bytes -> (int, fs_error) result;
  pfs_truncate : file_id -> len:int -> (unit, fs_error) result;
  pfs_rename :
    src_dir:file_id -> string -> dst_dir:file_id -> string ->
    (unit, fs_error) result;
  pfs_sync : unit -> unit;
  pfs_free_blocks : unit -> int;
  (* Crash recovery after a supervised restart: reclaim incarnation
     state (mapout pool), replay the journal if the format has one, and
     scan the recovered image for invariant violations. *)
  pfs_recover : unit -> recover_report;
}

let ( let* ) = Result.bind

(* --- the VOP vector layer ----------------------------------------------- *)

(* Journal transaction hook.  A format that journals supplies [txn_run]
   (begin / commit-or-rollback around the body) and the VOP compiler
   wraps every mutating entry of the compiled vector in it — crash
   consistency becomes a property of the operation vector, the way
   DragonFly hangs journaling off the VOP dispatch layer, instead of a
   private feature of one format's internals. *)
type txn = {
  txn_run : 'a. (unit -> ('a, fs_error) result) -> ('a, fs_error) result;
}

(* What a physical file system registers: a partial operation vector.
   [None] entries fall back to the defaults in [vop_compile] (DragonFly's
   vop_default / vfs_calc_vnodeops arrangement), so a format only writes
   the operations its on-disk layout actually supports — FAT registers
   no zero-copy or recovery entries at all. *)
type vop_partial = {
  vp_limits : format_limits;
  vp_root : file_id;
  vp_lookup : (dir:file_id -> string -> (file_id, fs_error) result) option;
  vp_create :
    (dir:file_id -> string -> is_dir:bool -> (file_id, fs_error) result) option;
  vp_remove : (dir:file_id -> string -> (unit, fs_error) result) option;
  vp_readdir : (dir:file_id -> (string list, fs_error) result) option;
  vp_stat : (file_id -> (stat, fs_error) result) option;
  vp_read : (file_id -> off:int -> len:int -> (bytes, fs_error) result) option;
  vp_map_pool : (Mach.Ktypes.task -> unit) option;
  vp_read_paged :
    (file_id -> off:int -> len:int ->
     ((int * int * bytes) option, fs_error) result)
    option;
  vp_release_paged : (addr:int -> bytes:int -> unit) option;
  vp_write : (file_id -> off:int -> bytes -> (int, fs_error) result) option;
  vp_truncate : (file_id -> len:int -> (unit, fs_error) result) option;
  vp_rename :
    (src_dir:file_id -> string -> dst_dir:file_id -> string ->
     (unit, fs_error) result)
    option;
  vp_sync : (unit -> unit) option;
  vp_free_blocks : (unit -> int) option;
  vp_recover : (unit -> recover_report) option;
  vp_txn : txn option;
}

let vop_null ~limits ~root =
  {
    vp_limits = limits;
    vp_root = root;
    vp_lookup = None;
    vp_create = None;
    vp_remove = None;
    vp_readdir = None;
    vp_stat = None;
    vp_read = None;
    vp_map_pool = None;
    vp_read_paged = None;
    vp_release_paged = None;
    vp_write = None;
    vp_truncate = None;
    vp_rename = None;
    vp_sync = None;
    vp_free_blocks = None;
    vp_recover = None;
    vp_txn = None;
  }

(* Compile a partial vector into the complete per-mount [pfs]: missing
   core operations become uniform E_io errors, missing optional
   operations become benign defaults (no-op sync, clean recovery, copy
   fallback for the zero-copy read path), and — when the format supplied
   a transaction hook — every mutating entry is wrapped in it. *)
let vop_compile (p : vop_partial) : pfs =
  let fmt = p.vp_limits.fl_format in
  let unsupported op = Error (E_io (Printf.sprintf "%s: no %s vop" fmt op)) in
  let dfl v d = Option.value v ~default:d in
  let base =
    {
      pfs_limits = p.vp_limits;
      pfs_root = p.vp_root;
      pfs_lookup = dfl p.vp_lookup (fun ~dir:_ _ -> unsupported "lookup");
      pfs_create =
        dfl p.vp_create (fun ~dir:_ _ ~is_dir:_ -> unsupported "create");
      pfs_remove = dfl p.vp_remove (fun ~dir:_ _ -> unsupported "remove");
      pfs_readdir = dfl p.vp_readdir (fun ~dir:_ -> unsupported "readdir");
      pfs_stat = dfl p.vp_stat (fun _ -> unsupported "stat");
      pfs_read = dfl p.vp_read (fun _ ~off:_ ~len:_ -> unsupported "read");
      pfs_map_pool = dfl p.vp_map_pool (fun _ -> ());
      pfs_read_paged = dfl p.vp_read_paged (fun _ ~off:_ ~len:_ -> Ok None);
      pfs_release_paged = dfl p.vp_release_paged (fun ~addr:_ ~bytes:_ -> ());
      pfs_write = dfl p.vp_write (fun _ ~off:_ _ -> unsupported "write");
      pfs_truncate = dfl p.vp_truncate (fun _ ~len:_ -> unsupported "truncate");
      pfs_rename =
        dfl p.vp_rename (fun ~src_dir:_ _ ~dst_dir:_ _ ->
            unsupported "rename");
      pfs_sync = dfl p.vp_sync (fun () -> ());
      pfs_free_blocks = dfl p.vp_free_blocks (fun () -> 0);
      pfs_recover = dfl p.vp_recover (fun () -> clean_recovery);
    }
  in
  match p.vp_txn with
  | None -> base
  | Some txn ->
      {
        base with
        pfs_create =
          (fun ~dir name ~is_dir ->
            txn.txn_run (fun () -> base.pfs_create ~dir name ~is_dir));
        pfs_remove =
          (fun ~dir name -> txn.txn_run (fun () -> base.pfs_remove ~dir name));
        pfs_write =
          (fun id ~off data ->
            txn.txn_run (fun () -> base.pfs_write id ~off data));
        pfs_truncate =
          (fun id ~len -> txn.txn_run (fun () -> base.pfs_truncate id ~len));
        pfs_rename =
          (fun ~src_dir name ~dst_dir new_name ->
            txn.txn_run (fun () ->
                base.pfs_rename ~src_dir name ~dst_dir new_name));
      }
