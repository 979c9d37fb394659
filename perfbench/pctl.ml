(* Order statistics for the benchmark's reports.

   Percentiles are nearest-rank over the raw samples: the value at
   1-based rank [ceil (p/100 * n)] of the sorted array.  Nearest rank
   never interpolates, so a reported p50 is always a latency some
   request actually saw, and ties resolve to the tied value itself. *)

let rank n p =
  if n <= 0 then invalid_arg "Pctl.rank: no samples";
  if p < 0.0 || p > 100.0 then invalid_arg "Pctl.rank: p outside [0,100]";
  let r = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  max 1 (min n r)

(* [sorted] must be ascending. *)
let of_sorted sorted p = sorted.(rank (Array.length sorted) p - 1)

let sorted_copy a =
  let s = Array.copy a in
  Array.sort compare s;
  s

let ints a p = of_sorted (sorted_copy a) p

(* Growable int sample buffer: domain-local, so appends need no
   synchronisation; [buf_cap] bounds memory (later samples are dropped
   and counted, never overwrite earlier ones). *)
type buf = { mutable data : int array; mutable len : int; mutable dropped : int }

let buf_cap = 1 lsl 22

let buf () = { data = Array.make 1024 0; len = 0; dropped = 0 }

let push b x =
  if b.len = Array.length b.data then
    if b.len >= buf_cap then b.dropped <- b.dropped + 1
    else begin
      let d = Array.make (min buf_cap (2 * b.len)) 0 in
      Array.blit b.data 0 d 0 b.len;
      b.data <- d
    end;
  if b.len < Array.length b.data then begin
    b.data.(b.len) <- x;
    b.len <- b.len + 1
  end

let concat bs =
  let n = List.fold_left (fun acc b -> acc + b.len) 0 bs in
  let a = Array.make n 0 in
  ignore
    (List.fold_left
       (fun off b ->
         Array.blit b.data 0 a off b.len;
         off + b.len)
       0 bs);
  Array.sort compare a;
  a

(* Percentile in microseconds of ns samples, or 0 when empty. *)
let us_of_sorted sorted p =
  if Array.length sorted = 0 then 0.0
  else float_of_int (of_sorted sorted p) /. 1e3

(* Percentile [p] of the quiet part of a run.  [samples] pairs a time
   with a value; the run is cut into 0.25 s windows of that time, every
   window holding at least 20 samples gets its own p-th percentile, and
   the result is the lower quartile (nearest rank) of those window
   values.  On a shared host a stall hits whole windows, so the figure
   tracks the program's own latency rather than the host's worst
   moments.  Falls back to the whole-run percentile when no window is
   full enough. *)
let quiet_window_ns = 250_000_000
let quiet_min_samples = 20

let quiet samples p =
  if Array.length samples = 0 then 0
  else begin
    let windows = Hashtbl.create 64 in
    Array.iter
      (fun (t, v) ->
        let w = t / quiet_window_ns in
        Hashtbl.replace windows w (v :: Option.value ~default:[] (Hashtbl.find_opt windows w)))
      samples;
    let per_window =
      Hashtbl.fold
        (fun _ vs acc ->
          if List.length vs >= quiet_min_samples then ints (Array.of_list vs) p :: acc else acc)
        windows []
    in
    match per_window with
    | [] -> ints (Array.map snd samples) p
    | l -> ints (Array.of_list l) 25.0
  end
