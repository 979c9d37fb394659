(** Per-figure experiment drivers.

    One runner per artifact of the paper's evaluation (Section 5 and
    the artifact appendix), listed in {!experiments}.  Each prints the
    table/series that the corresponding figure plots; EXPERIMENTS.md
    records the outputs against the paper's reported shapes.

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

val disjoint_insert :
  (module IMAP) -> total:int -> domains:int -> float * int
(** Figure 12's measurement, also the [insert] rows of
    [BENCH_sweeps.json]: best of 3 runs, each on a fresh map, of
    [domains] domains inserting disjoint ranges of [0 .. total-1].
    Returns the fastest run's [(elapsed_seconds, total_ops)]. *)

val disjoint_find : (module IMAP) -> int array -> (domains:int -> float * int)
(** Figure 13's measurement, also the [lookup] rows of
    [BENCH_sweeps.json]: [disjoint_find m keys] prefills a map with
    [keys] (a permutation of [0 .. n-1]) and warms it with one lookup
    pass; the function it returns times the best of 3 runs of
    [domains] domains calling [find] over disjoint ranges of the keys.
    Apply it to several domain counts to share one prefilled map.
    @raise Failure if a prefilled key is missing. *)

val experiments : (string * string * (scale -> unit)) list
(** Every experiment of the paper's evaluation (Figures 9-13, the
    level histograms and depth theory of Section 4.1) and of the
    extensions (cache and narrow-node ablations, mixed, Zipf, remove
    and trace-replay workloads) as [(name, doc, runner)], in run order:
    one [repro] subcommand each. *)
