module Value = Mood_model.Value
module Codec = Mood_model.Codec

type t = {
  store : Store.t;
  file : Heap_file.t;
  directory : (int, Heap_file.rid) Hashtbl.t;
  mutable next_slot : int;
  mutable total_bytes : int;
  mutable on_mutate : (int option -> unit) option;
      (* derived-structure invalidation (the PAX segment cache):
         [Some slot] after any successful write to that slot — however
         it arrives, including recovery redo/undo — [None] after a
         bulk clear. *)
}

let create ~store ?layout () =
  { store;
    file = Store.new_heap_file store ?layout ();
    directory = Hashtbl.create 64;
    next_slot = 0;
    total_bytes = 0;
    on_mutate = None
  }

let heap t = t.file

let set_mutation_hook t hook = t.on_mutate <- hook

let notify t slot = match t.on_mutate with Some f -> f slot | None -> ()

(* Records embed their slot so scans can recover object identity. *)
let encode slot value =
  Codec.encode (Value.Tuple [ ("#slot", Value.Int slot); ("#value", value) ])

let decode payload =
  match Codec.decode payload with
  | Value.Tuple [ ("#slot", Value.Int slot); ("#value", value) ] -> (slot, value)
  | _ -> failwith "Extent.decode: corrupt record"

let log t record =
  ignore (Wal.append (Store.wal t.store) record)

let versions t = Store.versions t.store

let record_version t ?txn slot before =
  Version_store.record_write (versions t) ?txn ~file:(Heap_file.file_id t.file)
    ~slot ~before ()

let insert_encoded t ?txn slot value =
  let payload = encode slot value in
  let rid = Heap_file.insert t.file payload in
  Hashtbl.replace t.directory slot rid;
  t.total_bytes <- t.total_bytes + String.length payload;
  record_version t ?txn slot (fun () -> None);
  begin
    match txn with
    | Some txn -> log t (Wal.Insert { txn; file = Heap_file.file_id t.file; rid; payload })
    | None -> ()
  end;
  notify t (Some slot)

let insert t ?txn value =
  let slot = t.next_slot in
  t.next_slot <- slot + 1;
  insert_encoded t ?txn slot value;
  slot

let insert_at t ?txn ~slot value =
  if Hashtbl.mem t.directory slot then
    invalid_arg (Printf.sprintf "Extent.insert_at: slot %d is live" slot);
  if slot >= t.next_slot then t.next_slot <- slot + 1;
  insert_encoded t ?txn slot value

let raw_get t slot =
  match Hashtbl.find_opt t.directory slot with
  | None -> None
  | Some rid -> begin
      match Heap_file.get t.file rid with
      | None -> None
      | Some payload -> Some (snd (decode payload))
    end

let get t slot =
  match Version_store.active_view (versions t) with
  | None -> raw_get t slot
  | Some _ when Version_store.is_empty (versions t) -> raw_get t slot
  | Some view ->
      (* Consulted even on a directory miss: a committed delete leaves
         a version only the chain remembers. *)
      Version_store.read (versions t) view ~file:(Heap_file.file_id t.file)
        ~slot ~heap:(fun () -> raw_get t slot)

let update t ?txn ~slot value =
  match Hashtbl.find_opt t.directory slot with
  | None -> false
  | Some rid -> begin
      match Heap_file.get t.file rid with
      | None -> false
      | Some before ->
          let after = encode slot value in
          let ok =
            if Heap_file.update t.file rid after then true
            else begin
              (* Did not fit in place: move the record. *)
              ignore (Heap_file.delete t.file rid);
              let fresh = Heap_file.insert t.file after in
              Hashtbl.replace t.directory slot fresh;
              true
            end
          in
          if ok then begin
            t.total_bytes <- t.total_bytes + String.length after - String.length before;
            record_version t ?txn slot (fun () -> Some (snd (decode before)));
            begin
              match txn with
              | Some txn ->
                  log t
                    (Wal.Update { txn; file = Heap_file.file_id t.file; rid; before; after })
              | None -> ()
            end;
            notify t (Some slot)
          end;
          ok
    end

let delete t ?txn slot =
  match Hashtbl.find_opt t.directory slot with
  | None -> false
  | Some rid ->
      let before = Heap_file.get t.file rid in
      let ok = Heap_file.delete t.file rid in
      if ok then begin
        Hashtbl.remove t.directory slot;
        begin
          match before with
          | Some payload ->
              t.total_bytes <- t.total_bytes - String.length payload;
              record_version t ?txn slot (fun () -> Some (snd (decode payload)))
          | None -> ()
        end;
        begin
          match txn, before with
          | Some txn, Some before ->
              log t (Wal.Delete { txn; file = Heap_file.file_id t.file; rid; before })
          | _, _ -> ()
        end;
        notify t (Some slot)
      end;
      ok

let scan t ~f =
  let view =
    match Version_store.active_view (versions t) with
    | Some view
      when Version_store.diverges (versions t) view ~file:(Heap_file.file_id t.file) ->
        Some view
    | Some _ | None -> None
  in
  match view with
  | None ->
      Heap_file.scan t.file ~f:(fun _rid payload ->
          let slot, value = decode payload in
          f slot value)
  | Some view ->
      let vs = versions t in
      let file = Heap_file.file_id t.file in
      Heap_file.scan t.file ~f:(fun _rid payload ->
          let slot, value = decode payload in
          match Version_store.read vs view ~file ~slot ~heap:(fun () -> Some value) with
          | Some v -> f slot v
          | None -> ());
      (* Slots the snapshot can still see but the heap no longer holds
         (committed deletes since the snapshot opened). *)
      List.iter
        (fun (slot, v) -> f slot v)
        (Version_store.hidden_slots vs view ~file ~present:(Hashtbl.mem t.directory))

let fold t ~init ~f =
  let acc = ref init in
  scan t ~f:(fun slot value -> acc := f !acc slot value);
  !acc

let slots t =
  Hashtbl.fold (fun slot _ acc -> slot :: acc) t.directory []
  |> List.sort Int.compare

let count t = Hashtbl.length t.directory

let page_count t = Heap_file.page_count t.file

let mean_object_size t =
  let n = count t in
  if n = 0 then 0. else float_of_int t.total_bytes /. float_of_int n

let clear t =
  Heap_file.clear t.file;
  Version_store.drop_file (versions t) ~file:(Heap_file.file_id t.file);
  Hashtbl.reset t.directory;
  t.next_slot <- 0;
  t.total_bytes <- 0;
  notify t None

let mem t slot = Hashtbl.mem t.directory slot
