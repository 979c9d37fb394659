(** Summary statistics for benchmark measurements.

    Mirrors the methodology in the paper (§5, citing Georges et al.):
    repeated measurements are summarized by mean, standard deviation
    and coefficient of variation; warmup is detected by the CoV
    dropping below a threshold. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  cov : float;  (** coefficient of variation, [stddev /. mean] *)
  min : float;
  max : float;
  median : float;
}

val summarize : float array -> summary
(** [summarize xs] computes summary statistics.
    @raise Invalid_argument on an empty array. *)

val mean : float array -> float
val stddev : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]]; linear interpolation on
    a sorted copy. *)

val warmed_up : ?window:int -> ?threshold:float -> float array -> bool
(** [warmed_up xs] holds when the CoV of the last [window] (default 5)
    samples is below [threshold] (default 0.10) — the ScalaMeter-style
    warmup criterion used by the paper's harness. *)
