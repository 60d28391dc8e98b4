(* Order statistics and failure counting for the benchmark report. *)

let sorted xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let s = sorted xs in
  if n mod 2 = 1 then s.(n / 2) else 0.5 *. (s.((n / 2) - 1) +. s.(n / 2))

(* samples that must lie strictly beyond a reported tail value *)
let tail_beyond = 10

type tail = { value : float; percentile : float }

(* The highest percentile with at least [tail_beyond] samples beyond it:
   the sample with exactly ten larger ones, reported with the share of
   samples at or below it. [None] below eleven samples, where no such
   percentile exists. *)
let tail xs =
  let n = Array.length xs in
  if n <= tail_beyond then None
  else
    let s = sorted xs in
    let k = n - tail_beyond - 1 in
    Some
      {
        value = s.(k);
        percentile = 100.0 *. float_of_int (k + 1) /. float_of_int n;
      }

(* Failed operations against attempted ones. Every checked operation is
   recorded, pass or fail; failures keep their reason for the report. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable reasons : string list;
}

let tally () = { attempted = 0; failed = 0; reasons = [] }

let record t ~what ok =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    t.reasons <- what :: t.reasons
  end

let error_rate t =
  if t.attempted = 0 then 0.0
  else float_of_int t.failed /. float_of_int t.attempted
