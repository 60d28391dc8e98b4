(* Paced time: the time a region would take at the host's quiet speed.

   The benchmark's host is shared. The same code runs up to 2x slower in
   phases that last from a fraction of a second to minutes, while other
   tenants load the machine, and a wall-clock median measures those phases
   more than the program. So while a timed region runs, a SIGALRM handler
   times [kernel] every [period] seconds of wall time. The kernel is a
   small floating-point loop owned by the benchmark: no change to the
   program can make it faster or slower, but a slow host phase slows it as
   much as it slows the program. A region's paced time is its CPU time
   minus the kernel's own, scaled by how fast the kernel ran during the
   region:

     paced = (cpu - sum r_i) * mean (nominal / r_i)

   where r_i are the kernel's CPU times and [nominal] is its time on a
   quiet host. CPU time leaves out time the process spends descheduled. A
   program change moves paced time as it moves wall time; a host phase
   moves the program's time and every r_i together and cancels out. *)

(* the kernel's CPU time in a quiet phase of the 2-core Intel Xeon KVM
   guest the benchmark was tuned on *)
let nominal = 2.15e-4
let period = 0.02

(* 150 passes of a 32x32 matrix-vector product, 8 KiB of data: ~0.2 ms,
   no allocation, results kept so the loop cannot be dropped *)
let dim = 32
let mat = Array.init (dim * dim) (fun i -> 1.0 +. (float_of_int (i mod 13) *. 1e-3))
let x = Array.make dim 1.0
let y = Array.make dim 0.0

let kernel () =
  for _ = 1 to 150 do
    for i = 0 to dim - 1 do
      let acc = ref 0.0 in
      for j = 0 to dim - 1 do
        acc := !acc +. (mat.((i * dim) + j) *. x.(j))
      done;
      y.(i) <- !acc *. 1e-2
    done;
    Array.blit y 0 x 0 dim
  done

(* the kernel's times, in the order taken; a region longer than
   [capacity] periods (20 min) keeps only its first samples *)
let capacity = 1 lsl 16
let times = Float.Array.make capacity 0.0
let count = ref 0
let busy = ref false

let sample () =
  if (not !busy) && !count < capacity then begin
    busy := true;
    let t0 = Sys.time () in
    kernel ();
    Float.Array.set times !count (Sys.time () -. t0);
    incr count;
    busy := false
  end

let set_timer interval =
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = interval; it_value = interval })

(* [net] seconds of the program's own time, with the kernel taking [rs]
   next to it *)
let scale ~net rs =
  if Array.length rs = 0 then invalid_arg "Pace.scale: no kernel samples";
  let speed = Array.fold_left (fun a r -> a +. (nominal /. r)) 0.0 rs in
  net *. speed /. float_of_int (Array.length rs)

type 'a timed = { result : 'a; wall : float; paced : float }

(* Run [f] with the sampler on. The kernel also runs once just before the
   region, so a region shorter than [period] still has a sample. *)
let run f =
  count := 0;
  sample ();
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> sample ()));
  let t0 = Clock.now () and c0 = Sys.time () in
  set_timer period;
  let stop () =
    set_timer 0.0;
    Sys.set_signal Sys.sigalrm Sys.Signal_ignore
  in
  let result = Fun.protect ~finally:stop f in
  let cpu = Sys.time () -. c0 and wall = Clock.elapsed t0 in
  let rs = Array.init !count (Float.Array.get times) in
  (* every sample but the first ran inside the region *)
  let inside = Array.fold_left ( +. ) 0.0 rs -. rs.(0) in
  { result; wall; paced = scale ~net:(cpu -. inside) rs }
