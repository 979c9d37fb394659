type summary = {
  n : int;
  mean : float;
  stddev : float;
  cov : float;
  min : float;
  max : float;
  median : float;
}

let mean xs =
  if Array.length xs = 0 then invalid_arg "Stats.mean";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let stddev xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.stddev";
  if n = 1 then 0.0
  else begin
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    sqrt (ss /. float_of_int (n - 1))
  end

let percentile xs p =
  if Array.length xs = 0 then invalid_arg "Stats.percentile";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = int_of_float (ceil rank) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let summarize xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summarize";
  let m = mean xs in
  let sd = stddev xs in
  let cov = if m = 0.0 then 0.0 else sd /. m in
  let mn = Array.fold_left min xs.(0) xs in
  let mx = Array.fold_left max xs.(0) xs in
  { n; mean = m; stddev = sd; cov; min = mn; max = mx; median = percentile xs 50.0 }

let warmed_up ?(window = 5) ?(threshold = 0.10) xs =
  let n = Array.length xs in
  if n < window then false
  else begin
    let tail = Array.sub xs (n - window) window in
    let s = summarize tail in
    s.cov < threshold
  end
