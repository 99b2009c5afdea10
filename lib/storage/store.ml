type t = {
  disk : Disk.t;
  buffer : Buffer_pool.t;
  locks : Lock_manager.t;
  wal : Wal.t;
  versions : Version_store.t;
  mutable next_file : int;
  temp_files : (int, Heap_file.t) Hashtbl.t;
      (* live join-spill partition files, keyed by file id; recovery
         purges the lot (their contents are never needed again) *)
}

let page_header = 96

let create ?(buffer_capacity = 256) () =
  let disk = Disk.create () in
  { disk;
    buffer = Buffer_pool.create ~disk ~capacity:buffer_capacity;
    locks = Lock_manager.create ();
    wal = Wal.create ();
    versions = Version_store.create ();
    next_file = 0;
    temp_files = Hashtbl.create 16
  }

let disk t = t.disk

let buffer t = t.buffer

let locks t = t.locks

let wal t = t.wal

let versions t = t.versions

let page_capacity _ = Disk.default_params.Disk.block_size - page_header

let alloc_files t n =
  let id = t.next_file in
  t.next_file <- id + n;
  id

let new_heap_file t ?layout () =
  let file_id = alloc_files t 1 in
  Heap_file.create ~file_id ~buffer:t.buffer ?layout ~page_capacity:(page_capacity t) ()

let new_btree t ?order ?unique ~key_size () =
  let file_id = alloc_files t 1 in
  Btree.create ~file_id ~buffer:t.buffer ?order ?unique ~key_size ()

let new_hash_index t ?bucket_capacity () =
  let file_id = alloc_files t 1 in
  Hash_index.create ~file_id ~buffer:t.buffer ?bucket_capacity ()

let new_binary_join_index t =
  let file_id = alloc_files t 2 in
  Join_index.Binary.create ~file_id ~buffer:t.buffer ()

let new_path_index t ~path =
  let file_id = alloc_files t 1 in
  Join_index.Path.create ~file_id ~buffer:t.buffer ~path ()

let new_rtree t ?max_entries () =
  let file_id = alloc_files t 1 in
  Rtree.create ~file_id ~buffer:t.buffer ?max_entries ()

let new_temp_file t =
  let hf = new_heap_file t () in
  Hashtbl.replace t.temp_files (Heap_file.file_id hf) hf;
  hf

let release_temp_file t hf =
  let id = Heap_file.file_id hf in
  if Hashtbl.mem t.temp_files id then begin
    Hashtbl.remove t.temp_files id;
    Heap_file.clear hf
  end

let live_temp_files t = Hashtbl.length t.temp_files

let temp_resident_frames t =
  Hashtbl.fold
    (fun file hf acc ->
      let pages = Heap_file.page_count hf in
      let n = ref 0 in
      for page = 0 to pages - 1 do
        if Buffer_pool.resident t.buffer ~file ~page then incr n
      done;
      acc + !n)
    t.temp_files 0

let purge_temp_files t =
  Hashtbl.iter
    (fun file _ -> Buffer_pool.invalidate t.buffer ~file)
    t.temp_files;
  Hashtbl.reset t.temp_files

let io_elapsed t = Disk.elapsed t.disk

let reset_io t =
  Disk.reset_counters t.disk;
  Buffer_pool.reset_stats t.buffer

let drop_cache t =
  Buffer_pool.clear t.buffer;
  Disk.reset_counters t.disk

let attach_wal_accounting t =
  Wal.set_persist_hook t.wal (fun _record -> Disk.write_page t.disk)
