(** The simulated disk.

    Substitutes the real disks under the Exodus Storage Manager. The
    point of the simulation is *cost accounting*: every page access is
    charged against the physical parameters of Table 10 (block size [b],
    block transfer time [btt], effective block transfer time [ebt],
    average rotational latency [r], average seek time [s]), so the
    benches can compare the optimizer's analytic predictions
    ([SEQCOST]/[RNDCOST]/...) with "measured" I/O time. Page payloads
    themselves are kept in memory. *)

type params = {
  block_size : int;     (** [B], bytes per page *)
  btt : float;          (** block transfer time, seconds *)
  ebt : float;          (** effective block transfer time, seconds *)
  rot : float;          (** average rotational latency [r], seconds *)
  seek : float;         (** average seek time [s], seconds *)
}

val default_params : params
(** The calibrated parameters of DESIGN.md §4: [B = 4096],
    [btt = 3.34 ms], [ebt = 1.67 ms], [r = 8.33 ms], [s = 12 ms] —
    chosen so that the Table 16 forward-traversal costs are matched. *)

type t

type counters = {
  seeks : int;          (** positioning operations (seek + rotation) *)
  random_reads : int;   (** pages transferred at [btt] *)
  sequential_reads : int; (** pages transferred at [ebt] *)
  writes : int;         (** pages written (charged at [btt] + positioning) *)
  elapsed : float;      (** total modeled time, seconds *)
}

val create : unit -> t
(** A disk charged at {!default_params}. *)

val read_random : t -> unit
(** One random page read: charges [s + r + btt]. *)

val read_sequential : t -> first:bool -> unit
(** One page of a sequential scan: the first page charges [s + r + ebt],
    subsequent pages [ebt] each — so scanning [b] pages costs
    [SEQCOST(b) = s + r + b*ebt]. *)

val write_page : ?page:int * int -> t -> unit
(** One page write: charges [s + r + btt]. [page] is the (file, page)
    identity of the frame being written, used for torn-page tracking
    under fault injection; raises [Crash] when an armed fault plan's
    write budget is exhausted (counters are not charged for the failed
    write). A completed write clears any earlier tear of the page. *)

(** {2 Fault injection}

    The crash-recovery harness arms a deterministic fault plan: the
    disk counts down writes and raises [Crash] on the Nth, optionally
    recording the in-flight page as torn (its durable image is garbage
    — neither the new nor the old contents survive). All randomness
    comes from the injected seeded [Prng], so every failure reproduces
    from a printed seed. *)

exception Crash

val inject_fault :
  t -> crash_after_writes:int -> ?torn_page_prob:float -> prng:Mood_util.Prng.t -> unit -> unit
(** Arms the plan: the [crash_after_writes]-th subsequent write raises
    [Crash] (and keeps raising until [clear_fault]). Raises
    [Invalid_argument] if [crash_after_writes <= 0]. *)

val clear_fault : t -> unit

val fault_armed : t -> bool

val torn_pages : t -> (int * int) list
(** Pages whose last write was severed by a crash. *)

val counters : t -> counters

val reset_counters : t -> unit

val elapsed : t -> float
(** [ (counters t).elapsed ]. *)

val with_measure : t -> (unit -> 'a) -> 'a * counters
(** Runs the thunk and returns the counters accumulated *during* it
    (outer accounting is preserved). *)

val pp_counters : Format.formatter -> counters -> unit
