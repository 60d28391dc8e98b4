(* Workload inputs generated from the benchmark seed. The program under
   test only ever sees these values, never the seed. *)

type workload = Buffer | Grid_sparse | Model_sim

let workloads = [ Buffer; Grid_sparse; Model_sim ]

let name = function
  | Buffer -> "buffer"
  | Grid_sparse -> "grid-sparse"
  | Model_sim -> "model-sim"

let of_name s = List.find_opt (fun w -> name w = s) workloads

type t = {
  rload : float;  (** buffer drain load per side, ohms *)
  diode_stride : int;  (** [rc_grid] puts a diode on every n-th node *)
  patterns : int array;  (** PRBS7 seeds of the model-sim bit patterns *)
}

let paper_rload = 470.0

(* the Fig. 9 pattern of the paper's experiment *)
let paper_pattern = 23

let rload_jitter = 0.05

(* Stride 6 is left out: on the 16-column grid it lines the diodes up in
   columns and the fit lands ~16 dB off strides 5 and 7, which would make
   the accuracy figures depend on the seed more than on the code. *)
let strides = [| 5; 7 |]

(* One model-sim operation simulates all of them once, ~0.2-0.4 s of work:
   long enough to average over the host's sub-second fast and slow phases.
   The first [reference_count] are also checked against SPICE. *)
let pattern_count = 32
let reference_count = 2

(* The extraction workloads validate on fixed patterns, so their accuracy
   figures move with the circuit and the code, not with the pattern. *)
let validation_patterns = [| paper_pattern; 40 |]

(* PRBS7 seeds live in 1..127 *)
let draw_patterns rng ~first =
  let rec go acc =
    if List.length acc = pattern_count then Array.of_list (List.rev acc)
    else
      let p = 1 + Random.State.int rng 127 in
      if List.mem p acc then go acc else go (p :: acc)
  in
  go first

let of_seed seed =
  let rng = Random.State.make [| 0x7f5e; seed |] in
  if seed = 0 then
    (* the paper buffer exactly, the library's default grid *)
    {
      rload = paper_rload;
      diode_stride = 7;
      patterns = draw_patterns rng ~first:[ paper_pattern ];
    }
  else
    let u = Random.State.float rng 2.0 -. 1.0 in
    let rload = paper_rload *. (1.0 +. (rload_jitter *. u)) in
    let diode_stride = strides.(Random.State.int rng (Array.length strides)) in
    { rload; diode_stride; patterns = draw_patterns rng ~first:[] }
