(* The benchmark's contract, written out as BENCHMARK.json at the root of
   the repository ([bench.exe --spec]). The tests check that the committed
   file is exactly this rendering and that it parses back to it. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** end-to-end metrics only *)
}

type t = {
  command : string list;
  paths : string list;
  run_seconds : int;
  workloads : (string * string) list;  (** name, why *)
  end_to_end : metric list;
  per_layer : metric list;
}

let e2e name unit_ better bound = { name; unit_; better; bound = Some bound }
let layer name unit_ better = { name; unit_; better; bound = None }

let spec =
  {
    command = [ "python3"; "perfbench/run.py" ];
    paths = [ "perfbench" ];
    run_seconds = 20;
    workloads =
      [
        ( "buffer",
          "the paper's Section IV buffer extraction, dense, one domain: \
           moves with the dense pencil solves (~55%), the VF/RVF fit \
           (~30%) and the training transient" );
        ( "grid-sparse",
          "16x16 diode RC grid on the sparse backend: sparse assembly, \
           Spclu and rational Krylov dominate and dense Clu never runs, \
           so dense-kernel changes should not move it" );
        ( "model-sim",
          "the extracted buffer model simulating 32 seeded 32-bit PRBS \
           patterns: the model user's path, where only hammerstein and \
           signal run" );
      ];
    end_to_end =
      [
        e2e "setup_s" "s" Lower 0.25;
        e2e "op_s" "s" Lower 0.25;
        e2e "op_tail_s" "s" Lower 0.25;
        e2e "alloc_mwords" "Mword" Lower 0.05;
        e2e "peak_rss_mb" "MB" Lower 0.15;
        e2e "surface_rms_db" "dB" Lower 0.15;
        e2e "time_nrmse_db" "dB" Lower 0.2;
      ];
    per_layer =
      [
        layer "engine.tran_s" "s" Lower;
        layer "engine.newton_iters" "count" Lower;
        layer "engine.tran_alloc_mwords" "Mword" Lower;
        layer "engine.krylov_shifts" "count" Lower;
        layer "engine.krylov_projected_frac" "ratio" Higher;
        layer "tft.dataset_s" "s" Lower;
        layer "tft.solve_us" "us" Lower;
        layer "tft.alloc_mwords" "Mword" Lower;
        layer "linalg.clu_solve_us" "us" Lower;
        layer "linalg.clu_alloc_words" "word" Lower;
        layer "linalg.spclu_factor_us" "us" Lower;
        layer "linalg.spclu_fill_ratio" "ratio" Lower;
        layer "vf.freq_stage_s" "s" Lower;
        layer "vf.freq_iters" "count" Lower;
        layer "rvf.fit_s" "s" Lower;
        layer "rvf.freq_poles" "count" Lower;
        layer "rvf.state_poles" "count" Lower;
        layer "rvf.alloc_mwords" "Mword" Lower;
        layer "hammerstein.sim_us_per_bit" "us" Lower;
        layer "hammerstein.sim_alloc_words_per_step" "word" Lower;
        layer "hammerstein.order" "count" Lower;
        layer "exec.pool_start_ms" "ms" Lower;
        layer "exec.tft_speedup" "ratio" Higher;
        layer "pipeline.unaccounted_frac" "ratio" Lower;
        layer "bench.trace_overhead_frac" "ratio" Lower;
      ];
  }

let better_to_string = function Lower -> "lower" | Higher -> "higher"

let better_of_string = function
  | "lower" -> Lower
  | "higher" -> Higher
  | s -> invalid_arg ("Spec: unknown direction " ^ s)

(* --- rendering: one entry per line, keys in contract order --- *)

let str s = "\"" ^ Minijson.escape s ^ "\""

(* shortest decimal that reads back to the same float *)
let short_float x =
  let s = Printf.sprintf "%.15g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let metric_line m =
  let fields =
    [
      ("name", str m.name);
      ("unit", str m.unit_);
      ("better", str (better_to_string m.better));
    ]
    @ match m.bound with Some b -> [ ("bound", short_float b) ] | None -> []
  in
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields)
  ^ "}"

let block items =
  match items with
  | [] -> "[]"
  | _ -> "[\n    " ^ String.concat ",\n    " items ^ "\n  ]"

let render t =
  let workload (name, why) =
    Printf.sprintf "{%s: %s, %s: %s}" (str "name") (str name) (str "why")
      (str why)
  in
  String.concat ""
    [
      "{\n";
      "  \"command\": [" ^ String.concat ", " (List.map str t.command) ^ "],\n";
      "  \"paths\": [" ^ String.concat ", " (List.map str t.paths) ^ "],\n";
      Printf.sprintf "  \"run_seconds\": %d,\n" t.run_seconds;
      "  \"workloads\": " ^ block (List.map workload t.workloads) ^ ",\n";
      "  \"end_to_end\": " ^ block (List.map metric_line t.end_to_end) ^ ",\n";
      "  \"per_layer\": " ^ block (List.map metric_line t.per_layer) ^ "\n";
      "}\n";
    ]

(* --- parsing back --- *)

let fail fmt = Printf.ksprintf invalid_arg ("Spec: " ^^ fmt)

let get_str j k =
  match Minijson.str_field j k with Some s -> s | None -> fail "missing %s" k

let get_arr j k =
  match Minijson.arr_field j k with Some a -> a | None -> fail "missing %s" k

let exact_keys j keys =
  match Minijson.as_obj j with
  | Some fields when List.map fst fields = keys -> ()
  | _ -> fail "expected exactly the keys %s" (String.concat ", " keys)

let metric_of_json ~bounded j =
  exact_keys j
    ([ "name"; "unit"; "better" ] @ if bounded then [ "bound" ] else []);
  {
    name = get_str j "name";
    unit_ = get_str j "unit";
    better = better_of_string (get_str j "better");
    bound = (if bounded then Minijson.num_field j "bound" else None);
  }

let of_json j =
  exact_keys j
    [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ];
  let strs k =
    List.map
      (fun s ->
        match Minijson.as_str s with Some s -> s | None -> fail "%s" k)
      (get_arr j k)
  in
  {
    command = strs "command";
    paths = strs "paths";
    run_seconds =
      (match Minijson.num_field j "run_seconds" with
      | Some n when Float.is_integer n -> int_of_float n
      | _ -> fail "run_seconds");
    workloads =
      List.map
        (fun w ->
          exact_keys w [ "name"; "why" ];
          (get_str w "name", get_str w "why"))
        (get_arr j "workloads");
    end_to_end = List.map (metric_of_json ~bounded:true) (get_arr j "end_to_end");
    per_layer = List.map (metric_of_json ~bounded:false) (get_arr j "per_layer");
  }
