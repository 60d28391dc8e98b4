(* Tests of the benchmark's own code: the tail rule, failure counting,
   seed determinism of the generated inputs, paced time and the
   BENCHMARK.json round trip. *)

open Perfbench

let tail_needs_eleven_samples () =
  Alcotest.(check bool) "10 samples: no tail" true
    (Stats.tail (Array.init 10 float_of_int) = None);
  match Stats.tail (Array.init 11 float_of_int) with
  | None -> Alcotest.fail "11 samples must give a tail"
  | Some t ->
      Alcotest.(check (float 0.0)) "the smallest of 11 has ten beyond" 0.0
        t.Stats.value

let tail_has_ten_beyond () =
  (* shuffled 0..39: the tail value must have exactly ten samples above *)
  let xs = Array.init 40 (fun i -> float_of_int ((i * 17) mod 40)) in
  match Stats.tail xs with
  | None -> Alcotest.fail "40 samples must give a tail"
  | Some t ->
      let beyond = Array.fold_left (fun n x -> if x > t.Stats.value then n + 1 else n) 0 xs in
      Alcotest.(check int) "ten beyond" 10 beyond;
      Alcotest.(check (float 1e-9)) "value" 29.0 t.Stats.value;
      Alcotest.(check (float 1e-9)) "percentile" 75.0 t.Stats.percentile

let median_even_odd () =
  Alcotest.(check (float 0.0)) "odd" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (float 0.0)) "even" 2.5 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |])

let error_rate_counts () =
  let t = Stats.tally () in
  Alcotest.(check (float 0.0)) "nothing attempted" 0.0 (Stats.error_rate t);
  List.iter (fun ok -> Stats.record t ~what:"op" ok) [ true; false; true; true ];
  Alcotest.(check int) "attempted" 4 t.Stats.attempted;
  Alcotest.(check int) "failed" 1 t.Stats.failed;
  Alcotest.(check (float 0.0)) "rate" 0.25 (Stats.error_rate t);
  Alcotest.(check (list string)) "reason kept" [ "op" ] t.Stats.reasons

let seed_zero_is_the_paper () =
  let i = Inputs.of_seed 0 in
  Alcotest.(check (float 0.0)) "rload" 470.0 i.Inputs.rload;
  Alcotest.(check int) "Fig. 9 pattern first" 23 i.Inputs.patterns.(0)

let seeds_are_deterministic () =
  for seed = 0 to 50 do
    let a = Inputs.of_seed seed and b = Inputs.of_seed seed in
    Alcotest.(check bool) (Printf.sprintf "seed %d repeats" seed) true (a = b);
    Alcotest.(check bool) "rload within 5%" true
      (Float.abs (a.Inputs.rload /. 470.0 -. 1.0) <= 0.05);
    Alcotest.(check bool) "stride 5 or 7" true
      (a.Inputs.diode_stride = 5 || a.Inputs.diode_stride = 7);
    Alcotest.(check int) "pattern count" Inputs.pattern_count
      (Array.length a.Inputs.patterns);
    Array.iter
      (fun p -> Alcotest.(check bool) "PRBS7 seed" true (p >= 1 && p <= 127))
      a.Inputs.patterns
  done;
  Alcotest.(check bool) "seeds differ" true (Inputs.of_seed 1 <> Inputs.of_seed 2)

let pace_scales_by_kernel_speed () =
  let n = Pace.nominal in
  Alcotest.(check (float 1e-12)) "quiet host: paced = net" 1.5
    (Pace.scale ~net:1.5 [| n; n; n |]);
  Alcotest.(check (float 1e-12)) "kernel twice as slow: half" 0.75
    (Pace.scale ~net:1.5 [| 2.0 *. n; 2.0 *. n |]);
  (* speeds are averaged: one slow stretch in four *)
  Alcotest.(check (float 1e-12)) "mean speed" (1.5 *. 0.875)
    (Pace.scale ~net:1.5 [| n; n; n; 2.0 *. n |])

let pace_run_samples_and_stops () =
  let spin () =
    let t0 = Sys.time () and acc = ref 0.0 in
    while Sys.time () -. t0 < 0.1 do
      acc := !acc +. sqrt (float_of_int (truncate !acc + 1))
    done;
    42
  in
  let p = Pace.run spin in
  Alcotest.(check int) "result passed through" 42 p.Pace.result;
  Alcotest.(check bool) "kernel sampled inside the region" true (!Pace.count >= 3);
  Alcotest.(check bool) "paced time positive and finite" true
    (p.Pace.paced > 0.0 && Float.is_finite p.Pace.paced);
  Alcotest.(check bool) "wall covers the spin" true (p.Pace.wall >= 0.099);
  (match Pace.run (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "the exception must pass through"
  | exception Failure _ -> ());
  let left = !Pace.count in
  ignore (spin ());
  Alcotest.(check int) "sampler off after the region" left !Pace.count

let spec_round_trip () =
  let text = Spec.render Spec.spec in
  Alcotest.(check bool) "parses back to the spec" true
    (Spec.of_json (Minijson.parse text) = Spec.spec)

let committed_file_matches () =
  let ic = open_in_bin "../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "BENCHMARK.json is bench.exe --spec" (Spec.render Spec.spec) text;
  Alcotest.(check bool) "and parses to the spec" true
    (Spec.of_json (Minijson.parse text) = Spec.spec)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail needs eleven samples" `Quick tail_needs_eleven_samples;
          Alcotest.test_case "tail has ten beyond" `Quick tail_has_ten_beyond;
          Alcotest.test_case "median" `Quick median_even_odd;
          Alcotest.test_case "error rate" `Quick error_rate_counts;
        ] );
      ( "inputs",
        [
          Alcotest.test_case "seed 0 is the paper" `Quick seed_zero_is_the_paper;
          Alcotest.test_case "seeds are deterministic" `Quick seeds_are_deterministic;
        ] );
      ( "pace",
        [
          Alcotest.test_case "scales by kernel speed" `Quick pace_scales_by_kernel_speed;
          Alcotest.test_case "run samples and stops" `Quick pace_run_samples_and_stops;
        ] );
      ( "spec",
        [
          Alcotest.test_case "round trip" `Quick spec_round_trip;
          Alcotest.test_case "committed file" `Quick committed_file_matches;
        ] );
    ]
