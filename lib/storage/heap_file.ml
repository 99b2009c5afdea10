type layout = Consecutive | Btree_file

type rid = { page : int; slot : Page.slot }

type t = {
  file_id : int;
  buffer : Buffer_pool.t;
  layout : layout;
  page_capacity : int;
  mutable pages : Page.t array;
  mutable page_count : int;
  mutable record_count : int;
}

let create ~file_id ~buffer ?(layout = Consecutive) ~page_capacity () =
  if page_capacity <= Page.slot_overhead then
    invalid_arg "Heap_file.create: page_capacity too small";
  { file_id; buffer; layout; page_capacity; pages = [||]; page_count = 0; record_count = 0 }

let file_id t = t.file_id

let layout t = t.layout

let page_count t = t.page_count

let record_count t = t.record_count

let add_page t =
  if t.page_count = Array.length t.pages then begin
    let fresh = Array.make (max 8 (2 * Array.length t.pages)) (Page.create ~capacity:t.page_capacity) in
    Array.blit t.pages 0 fresh 0 t.page_count;
    t.pages <- fresh
  end;
  t.pages.(t.page_count) <- Page.create ~capacity:t.page_capacity;
  t.page_count <- t.page_count + 1;
  t.page_count - 1

let insert t payload =
  if String.length payload + Page.slot_overhead > t.page_capacity then
    invalid_arg "Heap_file.insert: record larger than a page";
  let page_index =
    if t.page_count > 0 && Page.fits t.pages.(t.page_count - 1) (String.length payload)
    then t.page_count - 1
    else add_page t
  in
  Buffer_pool.modify t.buffer ~file:t.file_id ~page:page_index;
  match Page.insert t.pages.(page_index) payload with
  | Some slot ->
      t.record_count <- t.record_count + 1;
      { page = page_index; slot }
  | None -> assert false (* fits was checked *)

let valid_page t page = page >= 0 && page < t.page_count

let random_intent t =
  (* Both layouts pay full random cost for point access. *)
  ignore t;
  Buffer_pool.Random

let get t rid =
  if not (valid_page t rid.page) then None
  else begin
    Buffer_pool.access t.buffer ~file:t.file_id ~page:rid.page ~intent:(random_intent t);
    Page.get t.pages.(rid.page) rid.slot
  end

let update t rid payload =
  if not (valid_page t rid.page) then false
  else begin
    Buffer_pool.modify t.buffer ~file:t.file_id ~page:rid.page;
    Page.update t.pages.(rid.page) rid.slot payload
  end

let delete t rid =
  if not (valid_page t rid.page) then false
  else begin
    Buffer_pool.modify t.buffer ~file:t.file_id ~page:rid.page;
    let ok = Page.delete t.pages.(rid.page) rid.slot in
    if ok then t.record_count <- t.record_count - 1;
    ok
  end

let scan_intent t =
  match t.layout with
  | Consecutive -> Buffer_pool.Sequential
  | Btree_file -> Buffer_pool.Random (* ESM: files are B+ trees *)

let scan t ~f =
  let intent = scan_intent t in
  for page = 0 to t.page_count - 1 do
    Buffer_pool.access t.buffer ~file:t.file_id ~page ~intent;
    Page.iter t.pages.(page) (fun slot payload -> f { page; slot } payload)
  done

let fold t ~init ~f =
  let acc = ref init in
  scan t ~f:(fun rid payload -> acc := f !acc rid payload);
  !acc

let clear t =
  t.pages <- [||];
  t.page_count <- 0;
  t.record_count <- 0;
  Buffer_pool.invalidate t.buffer ~file:t.file_id
