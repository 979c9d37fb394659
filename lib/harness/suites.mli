(** Per-figure experiment drivers.

    One function per artifact of the paper's evaluation (Section 5 and
    the artifact appendix).  Each prints the table/series that the
    corresponding figure plots; EXPERIMENTS.md records the outputs
    against the paper's reported shapes.

    [scale] controls problem sizes: [Quick] runs in seconds for smoke
    testing, [Full] uses sizes close to the paper's. *)

type scale = Quick | Full

module type IMAP = Ct_util.Map_intf.CONCURRENT_MAP with type key = int

val structures : (module IMAP) list
(** All maps under test: cachetrie, cachetrie w/o cache, ctrie-snap
    (the Ctrie baseline, with O(1) snapshots), chm (split-ordered),
    chm-striped, skiplist, and oa-folklore (the "folklore"
    open-addressing table with help-driven migration, the flat-layout
    contender). *)

val structure_names : string list

val find_structure : string -> (module IMAP) option

val thread_counts : scale -> int list
(** Domain counts exercised by the multi-threaded experiments at the
    given scale. *)

val fig9_footprint : scale -> unit
(** Figure 9: memory footprint per structure and size, with the
    multiplier over the smallest (the paper normalizes to skip lists). *)

val fig10_single_threaded : scale -> unit
(** Figure 10: single-threaded lookup and insert times vs size. *)

val fig11_insert_high_contention : scale -> unit
(** Figure 11: all threads insert the same key sequence. *)

val fig12_insert_low_contention : scale -> unit
(** Figure 12: threads insert disjoint key ranges. *)

val fig13_parallel_lookup : scale -> unit
(** Figure 13: parallel lookup over a prefilled map. *)

val histograms : scale -> unit
(** Artifact A.5.1: level-occupancy histograms ("BirthdaySimulations")
    plus the adjacent-pair coverage check of Theorem 4.2. *)

val theory : scale -> unit
(** Section 4.1: analytic depth distribution vs an empirical trie, the
    mu(n) interval of Theorem 4.2 and the expected depth of 4.3. *)

val ablation_cache : scale -> unit
(** Extension: lookup cost with the cache on/off and across
    [max_misses] settings — quantifies the cache's contribution
    (the paper's "w/o cache" comparison, extended). *)

val ablation_narrow : scale -> unit
(** Extension: narrow (4-slot) nodes on/off — insert time and memory
    footprint with and without the paper's small-node optimization
    (Section 3.2, scenario 3). *)

val mixed_workload : scale -> unit
(** Extension: YCSB-style mixed operation benchmark (90% lookup /
    9% insert / 1% remove, and 50/40/10) across all structures and
    thread counts — the read-mostly regime the paper argues
    dictionaries live in. *)

val zipf_lookup : scale -> unit
(** Extension: lookup throughput under Zipf-skewed key popularity —
    skew concentrates traffic on few keys and shows how the trie cache
    behaves when the hot set is small. *)

val trace_replay : scale -> unit
(** Extension: replay deterministic production-style traces
    (read-mostly / churn / write-heavy profiles from {!Trace}) against
    every structure, single- and multi-domain. *)

val remove_throughput : scale -> unit
(** Extension: single-threaded remove throughput and the cost of
    remove-side compression (Section 3.7), per structure. *)

val experiments : (string * string * (scale -> unit)) list
(** Every experiment above as [(name, doc, runner)], in run order: the
    one list that [bench/main.exe] and the [repro] CLI both expose. *)
