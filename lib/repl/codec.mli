(** Serialization of the two replication payloads carried in wire
    [Blob] responses: the streaming record batch and the bootstrap
    snapshot, built from the WAL record codec's primitives — big-endian
    u32 integers, u32-length-prefixed strings — so a truncated or
    foreign blob fails with {!Codec_error}, not an array-bounds
    exception. *)

exception Codec_error of string
(** {!Mood_storage.Wal.Codec_error} itself: a handler for either
    catches both. *)

type batch = {
  b_term : int;      (** the answering primary's replication term *)
  b_last_lsn : int;  (** the primary's durable horizon at answer time —
                         [applied_lsn] lag is measured against this *)
  b_sent_us : int;   (** primary wall clock, microseconds since the
                         epoch, for the [repl.lag_s] histogram *)
  b_records : (int * Mood_storage.Wal.record) list;
      (** durable records after the requested cursor, oldest first,
          each with its LSN *)
}

type snapshot = {
  s_term : int;
  s_lsn : int;  (** the sharp-checkpoint LSN: the image reflects every
                    record at or below this, and streaming resumes
                    strictly after it *)
  s_schema : string;  (** [Db.dump_schema] script recreating classes,
                          methods and indexes on the replica *)
  s_files : (int * string) list;
      (** primary heap-file id -> class name, the translation table for
          shipped records (file ids differ across nodes) *)
  s_classes : (string * (int * string) list) list;
      (** per class: slot-faithful [(slot, encoded value)] contents *)
  s_active : int list;
      (** transactions in flight when the image was taken — their
          image-resident effects must be scrubbed and re-buffered *)
  s_undo : (int * Mood_storage.Wal.record list) list;
      (** per active transaction: its data records so far, oldest
          first *)
}

val encode_batch : batch -> string
val encode_snapshot : snapshot -> string

type payload = Batch of batch | Snapshot of snapshot

val decode : string -> payload
(** Decodes either blob kind by its leading tag byte. Raises
    {!Codec_error} on truncation, trailing bytes or unknown tags. *)
