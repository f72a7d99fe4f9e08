(* Monotonic time in seconds, at nanosecond resolution: layer calls of
   well under a microsecond are timed one call at a time. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Order statistics over timing samples. Percentiles are nearest-rank on
   a sorted copy, so a p99 over n samples is an observed value with
   n - ceil(0.99 n) samples beyond it. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let percentile p xs =
  match sorted xs with
  | [||] -> 0.0
  | a ->
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 0.5 xs

(* [per_chunk ~size p xs]: the [p] percentile of each of the consecutive
   chunks that [xs] (in arrival order) is cut into: an odd number of
   them, at least three, each of at least [size] samples, or one chunk
   of all of [xs] when it holds fewer than three times [size]. [chunked]
   is their median, an observed chunk's figure: one stall of the shared
   machine then moves one chunk's figure, not the run's. *)
let per_chunk ~size p xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  let k = n / size in
  let k = if k < 3 then 1 else if k mod 2 = 0 then k - 1 else k in
  List.init k (fun i ->
      let lo = i * n / k and hi = (i + 1) * n / k in
      percentile p (Array.to_list (Array.sub a lo (hi - lo))))

let chunked ~size p xs = median (per_chunk ~size p xs)
