(* Experiment drivers: one per table/figure of the paper's evaluation.
   See DESIGN.md for the experiment index and EXPERIMENTS.md for the
   recorded outputs. *)

module Hashing = Ct_util.Hashing

type scale = Quick | Full

module type IMAP = Ct_util.Map_intf.CONCURRENT_MAP with type key = int

module CT = Cachetrie.Make (Hashing.Int_key)

module CT_nocache = struct
  include CT

  let name = "cachetrie-nc"

  let create () =
    create_with ~config:{ Cachetrie.default_config with enable_cache = false } ()
end

module Ctrie_snap_map = Ctrie_snap.Make (Hashing.Int_key)
module Chm_map = Chm.Split_ordered.Make (Hashing.Int_key)
module Chm_striped = Chm.Striped.Make (Hashing.Int_key)
module Skiplist_map = Skiplist.Make (Hashing.Int_key)
module Folklore_map = Oa.Folklore.Make (Hashing.Int_key)

let structures : (module IMAP) list =
  [
    (module CT);
    (module CT_nocache);
    (module Ctrie_snap_map);
    (module Chm_map);
    (module Chm_striped);
    (module Skiplist_map);
    (module Folklore_map);
  ]

let structure_names =
  List.map (fun (module M : IMAP) -> M.name) structures

let find_structure name =
  List.find_opt (fun (module M : IMAP) -> M.name = name) structures

let thread_counts scale = match scale with Quick -> [ 1; 2; 4 ] | Full -> [ 1; 2; 3; 4; 6; 8 ]

(* ------------------------------------------------------------------ *)
(* Figure 9: memory footprint.                                         *)
(* ------------------------------------------------------------------ *)

let fig9_sizes = function
  | Quick -> [ 50_000 ]
  | Full -> [ 500_000; 1_000_000; 1_500_000; 2_000_000 ]

let fig9_footprint scale =
  Report.section "Figure 9 / Artifact A.5.2: memory footprint";
  let sizes = fig9_sizes scale in
  List.iter
    (fun n ->
      let keys = Workload.shuffled_keys n in
      let rows =
        List.map
          (fun (module M : IMAP) ->
            let t = M.create () in
            Array.iter (fun k -> M.insert t k k) keys;
            let words = Footprint.reachable_words t in
            let model = M.footprint_words t in
            (M.name, words, model))
          structures
      in
      let min_words =
        List.fold_left (fun acc (_, w, _) -> min acc w) max_int rows
      in
      Report.print_table
        ~header:[ "structure"; "kB (heap)"; "kB (model)"; "vs smallest" ]
        (List.map
           (fun (name, words, model) ->
             [
               name;
               Report.fmt_kb (Footprint.words_to_kb words);
               Report.fmt_kb (Footprint.words_to_kb model);
               Report.fmt_x (float_of_int words /. float_of_int min_words);
             ])
           rows);
      Printf.printf "(size %d)\n\n" n)
    sizes

(* ------------------------------------------------------------------ *)
(* Figure 10: single-threaded lookup and insert.                       *)
(* ------------------------------------------------------------------ *)

let fig10_sizes = function
  | Quick -> [ 50_000 ]
  | Full -> [ 50_000; 100_000; 200_000; 300_000; 400_000; 500_000 ]

let fig10_single_threaded scale =
  Report.section "Figure 10: single-threaded lookup and insert (ns/op)";
  let sizes = fig10_sizes scale in
  let reps = match scale with Quick -> 3 | Full -> 5 in
  List.iter
    (fun n ->
      let keys = Workload.shuffled_keys n in
      let probes = Workload.lookup_order keys in
      let rows =
        List.map
          (fun (module M : IMAP) ->
            (* Insert: fresh structure each run. *)
            let target = ref (M.create ()) in
            let insert_res =
              Measure.run ~repetitions:reps ~ops:n
                ~setup:(fun () -> target := M.create ())
                (fun () ->
                  let t = !target in
                  Array.iter (fun k -> M.insert t k k) keys)
            in
            (* Lookup: prefilled structure, warm cache. *)
            let t = M.create () in
            Array.iter (fun k -> M.insert t k k) keys;
            let sink = ref 0 in
            let lookup_res =
              Measure.run ~repetitions:reps ~ops:n (fun () ->
                  Array.iter
                    (fun k ->
                      match M.lookup t k with
                      | Some v -> sink := !sink + v
                      | None -> failwith "benchmark key missing")
                    probes)
            in
            ignore !sink;
            let sd_ns res =
              Printf.sprintf "%.1f"
                (res.Measure.summary.Ct_util.Stats.stddev *. 1e9 /. float_of_int n)
            in
            [
              M.name;
              Report.fmt_ns (Measure.ns_per_op lookup_res);
              sd_ns lookup_res;
              Report.fmt_ns (Measure.ns_per_op insert_res);
              sd_ns insert_res;
            ])
          structures
      in
      Report.print_table
        ~header:[ "structure"; "lookup ns/op"; "+/-sd"; "insert ns/op"; "+/-sd" ]
        rows;
      Printf.printf "(size %d)\n\n" n)
    sizes

(* ------------------------------------------------------------------ *)
(* Figures 11-13: multi-threaded benchmarks.                           *)
(* ------------------------------------------------------------------ *)

let fig11_sizes = function
  | Quick -> [ 50_000 ]
  | Full -> [ 50_000; 200_000; 600_000 ]

(* Best of 3 runs, matching short multi-threaded benches. *)
let reps = 3

(* One row per structure, one column per domain count, in ms.  [time m]
   runs once per structure, so any set-up it does before taking
   [~domains] is shared by that structure's columns. *)
let print_per_domain scale time =
  let threads = thread_counts scale in
  Report.print_table
    ~header:("structure" :: List.map (Printf.sprintf "p=%d") threads)
    (List.map
       (fun (module M : IMAP) ->
         let time = time (module M : IMAP) in
         M.name
         :: List.map (fun p -> Report.fmt_ms (fst (time ~domains:p))) threads)
       structures)

let fig11_insert_high_contention scale =
  Report.section "Figure 11: multi-threaded insert, high contention (ms)";
  List.iter
    (fun n ->
      let keys = Workload.shuffled_keys n in
      print_per_domain scale (fun (module M : IMAP) ~domains ->
          Parallel.best_of ~reps ~domains (fun () ->
              let t = M.create () in
              fun d counters ->
                Array.iter (fun k -> M.insert t k k) keys;
                Ct_util.Stripe.add counters d n));
      Printf.printf "(size %d; every thread inserts the same %d keys)\n\n" n n)
    (fig11_sizes scale)

let disjoint_insert (module M : IMAP) ~total ~domains =
  let ranges = Workload.disjoint_ranges ~domains ~total in
  Parallel.best_of ~reps ~domains (fun () ->
      let t = M.create () in
      fun d counters ->
        let r = ranges.(d) in
        Array.iter (fun k -> M.insert t k k) r;
        Ct_util.Stripe.add counters d (Array.length r))

let disjoint_find (module M : IMAP) keys =
  let t = M.create () in
  Array.iter (fun k -> M.insert t k k) keys;
  (* Warm the cache with one pass. *)
  Array.iter (fun k -> ignore (M.lookup t k)) keys;
  fun ~domains ->
    let ranges = Workload.disjoint_ranges ~domains ~total:(Array.length keys) in
    (* [find] raises on a missing key; one handler around the whole run
       keeps the check out of the timed loop. *)
    try
      Parallel.best_of ~reps ~domains (fun () d counters ->
          let r = ranges.(d) in
          Array.iter (fun k -> ignore (Sys.opaque_identity (M.find t k))) r;
          Ct_util.Stripe.add counters d (Array.length r))
    with Not_found -> failwith (M.name ^ ": prefilled key missing")

let fig12_sizes = function
  | Quick -> [ 100_000 ]
  | Full -> [ 100_000; 1_000_000; 2_000_000 ]

let fig12_insert_low_contention scale =
  Report.section "Figure 12: multi-threaded insert, low contention (ms)";
  List.iter
    (fun total ->
      print_per_domain scale (disjoint_insert ~total);
      Printf.printf "(total %d keys split across threads)\n\n" total)
    (fig12_sizes scale)

let fig13_size = function Quick -> 100_000 | Full -> 1_000_000

let fig13_parallel_lookup scale =
  Report.section "Figure 13: multi-threaded lookup (ms)";
  let n = fig13_size scale in
  let keys = Workload.shuffled_keys n in
  print_per_domain scale (fun m -> disjoint_find m keys);
  Printf.printf "(%d keys prefilled; finds split across threads)\n\n" n

(* ------------------------------------------------------------------ *)
(* Artifact A.5.1: level-occupancy histograms.                         *)
(* ------------------------------------------------------------------ *)

let hist_sizes = function
  | Quick -> [ 50_000; 200_000 ]
  | Full -> [ 50_000; 100_000; 200_000; 400_000; 800_000 ]

let histograms scale =
  Report.section "Artifact A.5.1: level occupancy histograms (cache-trie)";
  List.iter
    (fun n ->
      let t = CT.create () in
      let keys = Workload.shuffled_keys n in
      Array.iter (fun k -> CT.insert t k k) keys;
      let hist = CT.depth_histogram t in
      print_string (Analysis.Histogram.render ~label:(Printf.sprintf "size %d" n) hist);
      let d, frac = Analysis.Histogram.top_pair_fraction hist in
      Printf.printf "top adjacent pair: levels %d+%d hold %.1f%% (Theorem 4.2 expects >= 87%%)\n\n"
        (4 * d) (4 * (d + 1)) (100.0 *. frac))
    (hist_sizes scale)

(* ------------------------------------------------------------------ *)
(* Section 4.1: theory vs measurement.                                 *)
(* ------------------------------------------------------------------ *)

let theory scale =
  Report.section "Section 4.1: depth distribution theory (Theorems 4.1-4.4)";
  let ns =
    match scale with
    | Quick -> [ 1_000; 100_000 ]
    | Full -> [ 1_000; 10_000; 100_000; 1_000_000; 10_000_000 ]
  in
  Report.print_table
    ~header:[ "n"; "E[depth]"; "log16 n"; "best pair d"; "mu(n)" ]
    (List.map
       (fun n ->
         [
           string_of_int n;
           Printf.sprintf "%.3f" (Analysis.Depth_theory.expected_depth n);
           Printf.sprintf "%.3f" (log (float_of_int n) /. log 16.0);
           string_of_int (Analysis.Depth_theory.best_pair n);
           Printf.sprintf "%.4f" (Analysis.Depth_theory.mu n);
         ])
       ns);
  let lo, hi = Analysis.Depth_theory.theorem42_interval in
  Printf.printf "\nTheorem 4.2 interval for mu(n) as n->inf: (%.4f, %.4f)\n" lo hi;
  (* Empirical check of Theorem 4.1 on a real trie. *)
  let n = match scale with Quick -> 100_000 | Full -> 500_000 in
  let t = CT.create () in
  Array.iter (fun k -> CT.insert t k k) (Workload.shuffled_keys n);
  let observed = CT.depth_histogram t in
  let expected =
    Analysis.Depth_theory.distribution_levels n ~max_depth:(Array.length observed - 1)
  in
  Printf.printf "\nempirical vs analytic depth distribution (n = %d):\n" n;
  Report.print_table
    ~header:[ "depth"; "p(d,n)"; "observed" ]
    (List.filteri
       (fun d _ -> expected.(d) > 1e-6 || observed.(d) > 0)
       (List.init (Array.length observed) (fun d ->
            [
              string_of_int d;
              Printf.sprintf "%.5f" expected.(d);
              Printf.sprintf "%.5f"
                (float_of_int observed.(d) /. float_of_int n);
            ])));
  Printf.printf "chi-square distance: %.1f\n\n"
    (Analysis.Depth_theory.chi_square_distance expected observed)

(* ------------------------------------------------------------------ *)
(* Extension: cache ablation.                                          *)
(* ------------------------------------------------------------------ *)

let ablation_narrow scale =
  Report.section "Ablation: narrow (4-slot) nodes on/off";
  let n = match scale with Quick -> 100_000 | Full -> 500_000 in
  let reps = match scale with Quick -> 3 | Full -> 5 in
  let keys = Workload.shuffled_keys n in
  let variants =
    [
      ("narrow on (paper)", Cachetrie.default_config);
      ("narrow off (wide only)", { Cachetrie.default_config with narrow_nodes = false });
    ]
  in
  let rows =
    List.map
      (fun (label, config) ->
        let target = ref (CT.create_with ~config ()) in
        let res =
          Measure.run ~repetitions:reps ~ops:n
            ~setup:(fun () -> target := CT.create_with ~config ())
            (fun () ->
              let t = !target in
              Array.iter (fun k -> CT.insert t k k) keys)
        in
        let t = CT.create_with ~config () in
        Array.iter (fun k -> CT.insert t k k) keys;
        let s = CT.cache_stats t in
        [
          label;
          Report.fmt_ns (Measure.ns_per_op res);
          Report.fmt_kb (Footprint.words_to_kb (Footprint.reachable_words t));
          string_of_int s.Cachetrie.expansions;
        ])
      variants
  in
  Report.print_table
    ~header:[ "variant"; "insert ns/op"; "kB"; "expansions" ]
    rows;
  print_newline ()

let mixed_workload scale =
  Report.section "Extension: mixed workloads (ops/us, higher is better)";
  let n = match scale with Quick -> 50_000 | Full -> 500_000 in
  let total_ops = match scale with Quick -> 200_000 | Full -> 2_000_000 in
  let threads = match scale with Quick -> [ 1; 4 ] | Full -> [ 1; 2; 4; 8 ] in
  let mixes = [ ("90/9/1", 90, 99); ("50/40/10", 50, 90) ] in
  List.iter
    (fun (mix_name, read_cut, insert_cut) ->
      let rows =
        List.map
          (fun (module M : IMAP) ->
            M.name
            :: List.map
                 (fun p ->
                   let t = M.create () in
                   let keys = Workload.shuffled_keys n in
                   Array.iter (fun k -> M.insert t k k) keys;
                   let per = total_ops / p in
                   let dt =
                     Parallel.run_timed ~domains:p (fun d ->
                         let rng = Ct_util.Rng.create (0xABCD + d) in
                         for _ = 1 to per do
                           let k = Ct_util.Rng.next_int rng n in
                           let dice = Ct_util.Rng.next_int rng 100 in
                           if dice < read_cut then ignore (M.lookup t k)
                           else if dice < insert_cut then M.insert t k dice
                           else ignore (M.remove t k)
                         done)
                   in
                   Printf.sprintf "%.2f" (float_of_int total_ops /. dt /. 1e6))
                 threads
          )
          structures
      in
      Report.print_table
        ~header:("structure" :: List.map (Printf.sprintf "p=%d") threads)
        rows;
      Printf.printf "(mix %s over %d keys, %d total ops)\n\n" mix_name n total_ops)
    mixes

let zipf_lookup scale =
  Report.section "Extension: Zipf-skewed lookups (ns/op)";
  let n = match scale with Quick -> 100_000 | Full -> 1_000_000 in
  let probes_n = match scale with Quick -> 200_000 | Full -> 1_000_000 in
  let reps = match scale with Quick -> 3 | Full -> 5 in
  let skews = [ 0.0; 0.9; 1.2 ] in
  let rows =
    List.map
      (fun (module M : IMAP) ->
        let t = M.create () in
        Array.iter (fun k -> M.insert t k k) (Workload.shuffled_keys n);
        M.name
        :: List.map
             (fun s ->
               let probes = Workload.zipf_keys ~n:probes_n ~universe:n s in
               Array.iter (fun k -> ignore (M.lookup t k)) probes;
               let res =
                 Measure.run ~repetitions:reps ~ops:probes_n (fun () ->
                     Array.iter (fun k -> ignore (M.lookup t k)) probes)
               in
               Report.fmt_ns (Measure.ns_per_op res))
             skews)
      structures
  in
  Report.print_table
    ~header:("structure" :: List.map (Printf.sprintf "s=%.1f") skews)
    rows;
  Printf.printf "(%d keys; %d lookups per run; s=0 is uniform)\n\n" n probes_n

let remove_throughput scale =
  Report.section "Extension: single-threaded remove (ns/op)";
  let n = match scale with Quick -> 100_000 | Full -> 500_000 in
  let reps = match scale with Quick -> 3 | Full -> 5 in
  let keys = Workload.shuffled_keys n in
  let order = Workload.lookup_order keys in
  let rows =
    List.map
      (fun (module M : IMAP) ->
        let target = ref (M.create ()) in
        let res =
          Measure.run ~repetitions:reps ~ops:n
            ~setup:(fun () ->
              let t = M.create () in
              Array.iter (fun k -> M.insert t k k) keys;
              target := t)
            (fun () ->
              let t = !target in
              Array.iter (fun k -> ignore (M.remove t k)) order)
        in
        [ M.name; Report.fmt_ns (Measure.ns_per_op res) ])
      structures
  in
  Report.print_table ~header:[ "structure"; "remove ns/op" ] rows;
  (* Compression stats for the cache-trie specifically. *)
  let t = CT.create () in
  Array.iter (fun k -> CT.insert t k k) keys;
  Array.iter (fun k -> ignore (CT.remove t k)) order;
  let s = CT.cache_stats t in
  Printf.printf "(cache-trie compressions during full removal: %d)\n\n"
    s.Cachetrie.compressions

let trace_replay scale =
  Report.section "Extension: production-trace replay (ops/us, higher is better)";
  let n_ops = match scale with Quick -> 200_000 | Full -> 2_000_000 in
  let domains = match scale with Quick -> 2 | Full -> 4 in
  let profiles =
    [ ("read-mostly", Trace.read_mostly); ("churn", Trace.churn);
      ("write-heavy", Trace.write_heavy) ]
  in
  List.iter
    (fun (pname, profile) ->
      let trace = Trace.generate profile n_ops in
      let rows =
        List.map
          (fun (module M : IMAP) ->
            let module R = Trace.Replay (M) in
            let t1 = M.create () in
            let seq = R.replay ~prefill:(profile.Trace.universe / 2) t1 trace in
            let t2 = M.create () in
            let par =
              R.replay_parallel ~prefill:(profile.Trace.universe / 2) t2 ~domains trace
            in
            [
              M.name;
              Printf.sprintf "%.2f" (float_of_int n_ops /. seq.Trace.elapsed /. 1e6);
              Printf.sprintf "%.2f" (float_of_int n_ops /. par.Trace.elapsed /. 1e6);
              Printf.sprintf "%.0f%%"
                (100.0
                *. float_of_int seq.Trace.hits
                /. float_of_int (max 1 (seq.Trace.hits + seq.Trace.misses)));
            ])
          structures
      in
      Report.print_table
        ~header:[ "structure"; "1-domain"; Printf.sprintf "%d-domain" domains; "hit rate" ]
        rows;
      Printf.printf "(profile %s: %d ops, universe %d, half prefilled)\n\n" pname n_ops
        profile.Trace.universe)
    profiles

let ablation_cache scale =
  Report.section "Ablation: cache on/off and max_misses sweep (lookup ns/op)";
  let n = match scale with Quick -> 100_000 | Full -> 500_000 in
  let reps = match scale with Quick -> 3 | Full -> 5 in
  let keys = Workload.shuffled_keys n in
  let probes = Workload.lookup_order keys in
  let variants =
    ("no-cache", { Cachetrie.default_config with enable_cache = false })
    :: ("single-level cache", { Cachetrie.default_config with dual_level_cache = false })
    :: List.map
         (fun mm ->
           ( Printf.sprintf "cache mm=%d" mm,
             { Cachetrie.default_config with max_misses = mm } ))
         [ 256; 2048; 16384 ]
  in
  let rows =
    List.map
      (fun (label, config) ->
        let t = CT.create_with ~config () in
        Array.iter (fun k -> CT.insert t k k) keys;
        Array.iter (fun k -> ignore (CT.lookup t k)) keys;
        let res =
          Measure.run ~repetitions:reps ~ops:n (fun () ->
              Array.iter (fun k -> ignore (CT.lookup t k)) probes)
        in
        let s = CT.cache_stats t in
        [
          label;
          Report.fmt_ns (Measure.ns_per_op res);
          (match s.Cachetrie.cache_level with None -> "-" | Some l -> string_of_int l);
          string_of_int s.Cachetrie.sampling_passes;
        ])
      variants
  in
  Report.print_table ~header:[ "variant"; "lookup ns/op"; "cache level"; "samples" ] rows;
  print_newline ()

let experiments =
  [
    ("fig9", "Memory footprint comparison (Figure 9, Artifact A.5.2).", fig9_footprint);
    ("fig10", "Single-threaded lookup and insert (Figure 10).", fig10_single_threaded);
    ( "fig11",
      "Multi-threaded insert, high contention (Figure 11).",
      fig11_insert_high_contention );
    ( "fig12",
      "Multi-threaded insert, low contention (Figure 12).",
      fig12_insert_low_contention );
    ("fig13", "Multi-threaded lookup (Figure 13).", fig13_parallel_lookup);
    ("hist", "Level-occupancy histograms (Artifact A.5.1).", histograms);
    ("theory", "Depth-distribution theory, Theorems 4.1-4.4 (Section 4.1).", theory);
    ("ablation", "Cache ablation: on/off and max_misses sweep.", ablation_cache);
    ( "ablation-narrow",
      "Narrow-node (4-slot) ablation: insert time and footprint.",
      ablation_narrow );
    ("mixed", "Extension: YCSB-style mixed workloads across structures.", mixed_workload);
    ("zipf", "Extension: Zipf-skewed lookup throughput.", zipf_lookup);
    ("remove", "Extension: remove throughput and compression behaviour.", remove_throughput);
    ("replay", "Extension: production-style trace replay across structures.", trace_replay);
  ]
