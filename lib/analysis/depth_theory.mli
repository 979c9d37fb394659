(** Closed-form key-depth distribution of a 16-way hash trie
    (paper Section 4.1, Theorems 4.1-4.4).

    Depth [d] means trie level [4d]; a key "occupies depth d" when its
    leaf hangs off an inner node chain of length [d]. *)

val p : int -> int -> float
(** [p d n] — Theorem 4.1: the probability that a given key occupies
    depth [d] in a trie holding [n+1] keys under a universal hash,
    [(1 - 16^-(d+1))^n - (1 - 16^-d)^n]. *)

val mu : int -> float
(** [mu n = max_d (p d n +. p (d+1) n)] — the probability mass of the
    most populated adjacent depth pair.
    Theorem 4.2: as [n → ∞] this stays within ⟨0.8745, 0.9746⟩. *)

val best_pair : int -> int
(** [best_pair n] — the depth [d] maximizing [p d n +. p (d+1) n]; the cache
    should target level [4 * d]. *)

val expected_depth : int -> float
(** [expected_depth n] — Theorem 4.3: [Σ_d d·p(d,n)], which is
    [log16 n + O(1)]. *)

val distribution : int -> max_depth:int -> float array
(** [distribution n ~max_depth] — [p 0 n .. p max_depth n]. *)

val distribution_levels : int -> max_depth:int -> float array
(** [distribution_levels n ~max_depth] — the distribution re-indexed
    to match the tries' [depth_histogram] convention, where a leaf
    hanging off the root has depth 1 (trie level 4): slot [D] holds
    [p (D-1) n], slot 0 is 0.  The paper's depth [d] corresponds to a
    leaf stored at trie level [4 * (d + 1)]. *)

val theorem42_interval : float * float
(** The paper's asymptotic bounds ⟨0.8745, 0.9746⟩ on [mu]. *)

val chi_square_distance : float array -> int array -> float
(** [chi_square_distance expected observed] — Pearson's statistic of an
    observed depth histogram against expected probabilities (both are
    normalized internally); used to compare empirical tries against
    Theorem 4.1. *)
