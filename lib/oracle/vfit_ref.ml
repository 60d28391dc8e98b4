(* Residue identification and the fit loop as they ran before the fit
   stage learned real-axis compaction, the shared residue factorization
   and the in-place eigenvalue pipeline: one freshly allocated full
   interleaved least squares per element on the boxed basis table, the
   legacy dense sigma step, and the copying [Eig_ref]. *)

let column_scales phi points n_points p =
  let scales = Array.make p 1.0 in
  for col = 0 to p - 1 do
    let m = ref 0.0 in
    for l = 0 to n_points - 1 do
      m := Float.max !m (Complex.norm phi.(l).(col))
    done;
    if !m > 0.0 then scales.(col) <- 1.0 /. !m
  done;
  let zmax =
    Array.fold_left (fun m z -> Float.max m (Complex.norm z)) 0.0 points
  in
  (scales, if zmax > 0.0 then 1.0 /. zmax else 1.0)

let identify ~(opts : Vf.Vfit.opts) ~poles ~points ~data ~weights =
  let p = Array.length poles in
  let n_points = Array.length points in
  let phi = Vf.Basis.table poles points in
  let scales, zscale = column_scales phi points n_points p in
  let n1 =
    p
    + (if opts.Vf.Vfit.with_const then 1 else 0)
    + if opts.Vf.Vfit.with_slope then 1 else 0
  in
  let coeffs = Array.map (fun _ -> Array.make p 0.0) data in
  let consts = Array.map (fun _ -> 0.0) data in
  let slopes = Array.map (fun _ -> 0.0) data in
  let fit_element e row =
    let a = Linalg.Mat.create (2 * n_points) n1 in
    let rhs = Linalg.Vec.create (2 * n_points) in
    for l = 0 to n_points - 1 do
      let w = weights.(e).(l) in
      let re_row = 2 * l and im_row = (2 * l) + 1 in
      for c = 0 to p - 1 do
        let v = phi.(l).(c) in
        Linalg.Mat.set a re_row c (w *. v.Complex.re *. scales.(c));
        Linalg.Mat.set a im_row c (w *. v.Complex.im *. scales.(c))
      done;
      let cursor = ref p in
      if opts.Vf.Vfit.with_const then begin
        Linalg.Mat.set a re_row !cursor w;
        incr cursor
      end;
      if opts.Vf.Vfit.with_slope then begin
        Linalg.Mat.set a re_row !cursor (w *. points.(l).Complex.re *. zscale);
        Linalg.Mat.set a im_row !cursor (w *. points.(l).Complex.im *. zscale);
        incr cursor
      end;
      rhs.(re_row) <- w *. row.(l).Complex.re;
      rhs.(im_row) <- w *. row.(l).Complex.im
    done;
    match Linalg.Qr.least_squares a rhs with
    | exception Linalg.Qr.Rank_deficient _ -> ()
    | sol ->
        for c = 0 to p - 1 do
          coeffs.(e).(c) <- sol.(c) *. scales.(c)
        done;
        let cursor = ref p in
        if opts.Vf.Vfit.with_const then begin
          consts.(e) <- sol.(!cursor);
          incr cursor
        end;
        if opts.Vf.Vfit.with_slope then slopes.(e) <- sol.(!cursor) *. zscale
  in
  Array.iteri fit_element data;
  { Vf.Model.poles; coeffs; consts; slopes }

let relocate ~(opts : Vf.Vfit.opts) ~poles ~points ~data ~weights =
  let attempt relax =
    match
      Vf.Vfit.dense_sigma_step ~opts ~poles ~points ~data ~weights ~relax
    with
    | None -> None
    | Some (c_tilde, d_tilde) ->
        if relax && Float.abs d_tilde < 1e-8 then None
        else begin
          let a, b = Vf.Basis.state_matrices poles in
          let p = Array.length poles in
          let m =
            Linalg.Mat.init p p (fun r c ->
                Linalg.Mat.get a r c -. (b.(r) *. c_tilde.(c) /. d_tilde))
          in
          match Eig_ref.eigenvalues m with
          | exception Linalg.Eig.No_convergence -> None
          | eigs ->
              let mm = opts.Vf.Vfit.max_magnitude in
              let eigs =
                if mm <= 0.0 then eigs
                else
                  Array.map
                    (fun a ->
                      let m = Complex.norm a in
                      if m > mm then Linalg.Cx.scale (mm /. m) a else a)
                    eigs
              in
              Some
                (Vf.Pole.normalize ~enforce_stable:opts.Vf.Vfit.enforce_stable
                   ~min_imag:opts.Vf.Vfit.min_imag eigs)
        end
  in
  match attempt opts.Vf.Vfit.relax with
  | Some poles -> Some poles
  | None -> if opts.Vf.Vfit.relax then attempt false else None

let fit ~(opts : Vf.Vfit.opts) ~poles ~points ~data =
  let weights = Vf.Vfit.weights_of opts data in
  let poles =
    ref
      (Vf.Pole.normalize ~enforce_stable:opts.Vf.Vfit.enforce_stable
         ~min_imag:opts.Vf.Vfit.min_imag poles)
  in
  let iterations_run = ref 0 in
  (try
     for it = 1 to opts.Vf.Vfit.iterations do
       match relocate ~opts ~poles:!poles ~points ~data ~weights with
       | Some p ->
           iterations_run := it;
           poles := p
       | None -> raise Exit
     done
   with Exit -> ());
  let model = identify ~opts ~poles:!poles ~points ~data ~weights in
  let rms = Vf.Model.rms_error model ~points ~data in
  let max_err = Vf.Model.max_error model ~points ~data in
  ( model,
    {
      Vf.Vfit.rms;
      max_err;
      iterations_run = !iterations_run;
      pole_count = Array.length !poles;
    } )
