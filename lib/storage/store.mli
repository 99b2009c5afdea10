(** Storage-manager facade: one simulated disk, one buffer pool, one
    lock manager and one log, plus a file-id allocator for heap files
    and index structures. This is the substitute for the Exodus Storage
    Manager handle MOOD is "realized on". *)

type t

val create : ?buffer_capacity:int -> unit -> t
(** [buffer_capacity] defaults to 256 frames. *)

val disk : t -> Disk.t

val buffer : t -> Buffer_pool.t

val locks : t -> Lock_manager.t

val wal : t -> Wal.t

val versions : t -> Version_store.t
(** Version chains for MVCC snapshot reads. Tracking starts disabled
    (a bare store behaves exactly as before); [Db] enables it. *)

val page_capacity : t -> int
(** Usable record bytes per page: block size minus a fixed header. *)

val new_heap_file : t -> ?layout:Heap_file.layout -> unit -> Heap_file.t

val new_btree :
  t -> ?order:int -> ?unique:bool -> key_size:int -> unit -> 'a Btree.t

val new_hash_index : t -> ?bucket_capacity:int -> unit -> 'a Hash_index.t

val new_binary_join_index : t -> Join_index.Binary.t

val new_path_index : t -> path:string list -> Join_index.Path.t

val new_rtree : t -> ?max_entries:int -> unit -> 'a Rtree.t

val new_temp_file : t -> Heap_file.t
(** A heap file registered as a join-spill temporary. Its pages flow
    through the buffer pool and disk like any other file, so spills are
    charged, observable and crash-injectable; pair every allocation with
    [release_temp_file] (or let recovery [purge_temp_files]). *)

val release_temp_file : t -> Heap_file.t -> unit
(** Unregisters and empties a temp file (dropping its buffered pages).
    Idempotent; no-op for files not allocated by [new_temp_file]. *)

val live_temp_files : t -> int
(** Registered temp files not yet released — the zero-leak audit expects
    0 outside a running join. *)

val temp_resident_frames : t -> int
(** Buffer-pool frames still holding pages of live temp files. *)

val purge_temp_files : t -> unit
(** Drops every live temp file without write-back — recovery's cleanup
    of spill partitions orphaned by a crash. *)

val io_elapsed : t -> float
(** Modeled seconds spent in I/O since the last reset. *)

val reset_io : t -> unit
(** Clears disk counters and buffer statistics (buffered pages remain
    resident). *)

val drop_cache : t -> unit
(** Empties the buffer pool entirely (cold-start measurements), without
    write-back; also resets counters. *)

val attach_wal_accounting : t -> unit
(** Charges one disk page write per WAL record persisted by
    [Wal.flush]. Opt-in (the crash harness uses it) so existing cost
    measurements are unchanged; once attached, a log force both shows
    up in the write counters and participates in fault injection — a
    crash can sever a commit's log flush mid-way. *)
