type t = Hammerstein.Static_fn.expansion = {
  betas : float array;
  alphas : float array;
  c1 : float array;
  c2 : float array;
  const : float;
  offset : float;
}

exception Not_integrable of string

let of_model (m : Vf.Model.t) ~elem =
  if m.Vf.Model.slopes.(elem) <> 0.0 then
    raise (Not_integrable "model has a linear slope term");
  let coeffs = m.Vf.Model.coeffs.(elem) in
  let pairs =
    List.filter_map
      (fun slot ->
        match slot with
        | Vf.Pole.Single k ->
            if coeffs.(k) <> 0.0 then
              raise
                (Not_integrable
                   (Printf.sprintf "real pole %g on the state axis"
                      m.Vf.Model.poles.(k).Complex.re));
            None
        | Vf.Pole.Pair_first k -> Some k)
      (Vf.Pole.structure m.Vf.Model.poles)
    |> Array.of_list
  in
  let pole k = m.Vf.Model.poles.(k) in
  {
    betas = Array.map (fun k -> (pole k).Complex.re) pairs;
    alphas = Array.map (fun k -> Float.abs (pole k).Complex.im) pairs;
    c1 = Array.map (fun k -> coeffs.(k)) pairs;
    c2 = Array.map (fun k -> coeffs.(k + 1)) pairs;
    const = m.Vf.Model.consts.(elem);
    offset = 0.0;
  }

let deriv = Hammerstein.Static_fn.expansion_deriv
let eval = Hammerstein.Static_fn.expansion_eval

let set_value t ~at ~value =
  let current = eval t at in
  { t with offset = t.offset +. value -. current }

let formula = Hammerstein.Static_fn.expansion_formula
let to_static_fn = Hammerstein.Static_fn.of_expansion
