(** Unified metrics registry (observability layer).

    One registry instance holds named monotonic counters, latency
    histograms and pull-based {e sources}. Components that already keep
    their own accounting (buffer pool, plan cache, simulated disk, WAL,
    lock manager) are absorbed as sources: a closure that reads their
    live counters at snapshot time, so the hot path of those components
    is untouched. Components with events nobody counted before push
    into registry counters directly.

    Counters are interned: [counter t name] always returns the same
    cell for the same name, so call sites hoist the lookup out of their
    hot loop and pay one guarded integer increment per event. When the
    registry is disabled ([set_enabled t false]) increments are a
    single mutable-bool test — no allocation, no hashing.

    Snapshots are association lists sorted by key, which makes
    [render] output stable and [diff] a linear merge.

    A registry takes no lock. Each counter and histogram has one
    writing thread, or is written only under one mutex, so no
    increment is lost; a snapshot taken meanwhile reads each cell as
    it stands. Interning ([counter], [histogram]) and
    [register_source] change the registry itself: do them before any
    thread that snapshots the registry is running. *)

type t

type counter
(** A named monotonic event counter owned by a registry. *)

type histogram
(** A fixed-bucket histogram of float observations (seconds). *)

val create : ?enabled:bool -> unit -> t
(** Fresh registry; [enabled] defaults to [true]. *)

val set_enabled : t -> bool -> unit
val enabled : t -> bool

val counter : t -> string -> counter
(** Interned lookup-or-create. Names are conventionally
    ["component.event"], e.g. ["wal.forces"]. *)

val incr : counter -> unit
(** Adds 1 when the owning registry is enabled; otherwise a no-op that
    allocates nothing. *)

val add : counter -> int -> unit
val value : counter -> int
(** The counter's current value. *)

val histogram : t -> string -> histogram
(** Interned lookup-or-create. Every histogram buckets by the same
    upper bounds in seconds: a latency ladder from 100µs to 10s. *)

val observe : histogram -> float -> unit
(** Records one observation (seconds) when the registry is enabled. *)

val register_source : t -> (unit -> (string * int) list) -> unit
(** Registers a pull source: called at every [snapshot], it returns
    current [(name, value)] pairs for counters maintained elsewhere.
    A caller that wants the change over an interval takes two
    snapshots and {!diff}s them. *)

type snapshot = (string * int) list
(** Sorted by name, ascending. *)

val snapshot : t -> snapshot
(** Counters, histogram aggregates ([.count], [.sum_us], [.le_*] and
    [.le_inf] cumulative buckets) and all source values. *)

val diff : before:snapshot -> after:snapshot -> snapshot
(** Per-key [after - before]; keys missing from [before] count from 0,
    keys missing from [after] are dropped. *)

val render : snapshot -> string
(** One ["name value"] line per entry, machine-parseable. *)
