(* Run the analytical oracle battery and report its verdicts.

   Usage: oracle_check [--quick] [--json FILE]

   Runs the battery, then the bitwise split-LU parity verdict
   ([Battery.clu_parity]) on the buffer's TFT pencils, the bitwise
   real-axis fit-stage verdict ([Battery.real_axis_parity]) on the
   buffer's state-stage traces and the two
   extracted-buffer-model verdicts: bitwise simulation-plan parity
   ([Battery.plan_parity]) and bounded extrapolation
   ([Battery.extrapolation]). Prints the
   one-line-per-check summary table to stdout, optionally
   writes the schema-versioned JSON verdict, and exits 1 if any check
   failed (tolerance exceeded, NaN metric, or an escaped exception) —
   so both CI aliases and humans can gate on the battery. *)

let () =
  let quick = ref false in
  let json_path = ref None in
  let rec parse_args = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse_args rest
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse_args rest
    | arg :: _ ->
        Printf.eprintf "usage: oracle_check [--quick] [--json FILE] (got %S)\n"
          arg;
        exit 2
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let battery = Oracle.Battery.run ~quick:!quick () in
  let verdicts =
    battery
    @ List.map
        (fun check -> check ())
        Oracle.Battery.[ clu_parity; real_axis_parity; plan_parity; extrapolation ]
  in
  print_string (Oracle.Battery.summary verdicts);
  (match !json_path with
  | Some path ->
      let oc = open_out path in
      output_string oc (Oracle.Battery.json ~quick:!quick verdicts);
      output_char oc '\n';
      close_out oc
  | None -> ());
  if Oracle.Battery.all_passed verdicts then print_endline "oracle ok"
  else begin
    prerr_endline "oracle_check: battery FAILED";
    exit 1
  end
