(* The benchmark's output: human-readable lines starting with "# ",
   then, as the last line, one JSON object with the keys "correct",
   "attempted", "failed" and "metrics".  An untraced run's metrics are
   the end-to-end ones; a traced run's are the per-layer ones.  The two
   name lists below are the ones BENCHMARK.json declares. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ok_frac", "frac");
    ("cpu_us_per_op", "us/op");
    ("hit_frac", "frac");
    ("stored_bytes_per_user_byte", "B/B");
  ]

(* A layer a workload does not run reports 0. *)
let per_layer =
  [
    ("cachetrie.find_ns", "ns");
    ("cachetrie.insert_ns", "ns");
    ("cachetrie.remove_ns", "ns");
    ("cachetrie.cas_retries_per_kop", "1/kop");
    ("cachetrie.cache_miss_frac", "frac");
    ("cachetrie.footprint_bytes_per_key", "B/key");
    ("cache.get_or_load_ns", "ns");
    ("cache.put_ns", "ns");
    ("cache.evictions_per_kop", "1/kop");
    ("cache.rejections_per_kop", "1/kop");
    ("cache.used_frac", "frac");
    ("protocol.encode_request_ns", "ns");
    ("protocol.decode_reply_ns", "ns");
    ("protocol.decode_request_ns", "ns");
    ("protocol.encode_reply_ns", "ns");
    ("protocol.bytes_per_op", "B/op");
    ("server.accepted_p50_us", "us");
    ("server.queue_wait_p50_us", "us");
    ("server.exec_p50_us", "us");
    ("server.map_read_ns", "ns");
    ("server.map_write_ns", "ns");
    ("server.sheds_per_kop", "1/kop");
    ("server.outside_p50_us", "us");
    ("wal.append_ns", "ns");
    ("wal.ack_wait_p50_us", "us");
    ("wal.fsync_p50_us", "us");
    ("wal.appends_per_fsync", "count");
    ("wal.bytes_per_user_byte", "B/B");
    ("checkpoint.per_kop", "1/kop");
    ("checkpoint.bytes_per_user_byte", "B/B");
    ("recovery_s", "s");
    ("ctrie_snap.read_ns", "ns");
    ("ctrie_snap.write_ns", "ns");
    ("gc.minor_words_per_op", "words/op");
    ("gc.minor_collections_per_kop", "1/kop");
    ("gc.major_collections_per_kop", "1/kop");
    ("gen.late_p99_us", "us");
    ("gen.late_max_us", "us");
    ("client.read_p50_us", "us");
    ("client.write_p50_us", "us");
    ("client.read_p90_us", "us");
    ("client.read_p99_us", "us");
    ("client.read_p999_us", "us");
    ("trace_overhead_frac", "frac");
  ]

let info fmt = Printf.ksprintf (fun s -> print_string ("# " ^ s ^ "\n"); flush stdout) fmt

(* Finite JSON number with every digit the float has. *)
let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* Print the result line: [values] must name exactly the metrics of
   [names]. *)
let result ~names ~correct ~attempted ~failed values =
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n values) then failwith ("metric not measured: " ^ n))
    names;
  let metrics =
    List.map
      (fun (n, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (number (List.assoc n values)) unit)
      names
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " metrics)

(* [num / den], or 0 when nothing was counted. *)
let ratio num den = if den = 0.0 then 0.0 else num /. den

let per_kop count ops = ratio (1000.0 *. count) (float_of_int ops)
