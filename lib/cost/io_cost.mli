(** Cost of basic file operations (Section 5).

    All costs are in modeled seconds under the physical parameters of
    Table 10. [INDCOST] consumes the B+-tree parameters of Table 9 and
    the [c(n,m,r)] color approximation. *)

type params = {
  disk : Mood_storage.Disk.params;
  cpu_cost : float;
      (** CPUCOST: per-comparison CPU charge of the backward-traversal
          formula (Section 6.2). The paper never states its value; the
          default (5 ms) is calibrated so the optimizer's choices on the
          Section 8 examples match the paper's printed plans — see
          DESIGN.md and the [bench:cpucost-sensitivity] ablation. *)
}

val default_params : params

val seqcost : params -> int -> float
(** [SEQCOST(b) = s + r + b*ebt]; 0 when [b <= 0]. It also prices a
    columnar scan's sweep over [b] PAX segment pages (the attribute
    minipages are contiguous), so the scan formulas share one sequential
    cost. *)

val rndcost : params -> float -> float
(** [RNDCOST(b) = b * (s + r + btt)]. Accepts fractional page counts
    because expected values flow in. Negative input clamps to 0. *)

val indcost : params -> Stats.index_stats -> k:int -> float
(** [INDCOST(k)]: expected cost of fetching object identifiers for [k]
    random keys from a secondary index, walking levels top-down with
    [n_i = leaves/(2v ln 2)^(i-2)], [m_i = leaves/(2v ln 2)^(i-1)],
    [r_1 = k], [r_i = c(n_(i-1), m_(i-1), r_(i-1))]. *)

val rngxcost : params -> Stats.index_stats -> fract:float -> float
(** [RNGXCOST(fract) = fract * leaves * (s + r + btt)]. *)

val deccost : params -> bytes:int -> float
(** Decompression CPU for decoding [bytes] of dictionary/RLE-encoded
    minipage payload: [bytes/1024 * cpu_cost]. *)

val pp_params : Format.formatter -> params -> unit
