(** The closure-based model simulation: the bitwise reference for
    {!Hammerstein.Hmodel.simulate}.

    This is the loop [Hmodel.simulate] ran before it compiled the static
    stages into a shared-basis evaluation plan, kept verbatim: every
    branch calls its own [Static_fn.eval] closures each step (so an
    [f1 = fa + fb], [f2 = fa − fb] pair evaluates [fa] and [fb] twice and
    every stage recomputes its own [ln]/[atan] basis), the static path is
    evaluated at a second [u] call, and the trapezoidal update runs in
    [Array.iteri] closures. The plan must reproduce its times and values
    bit for bit.

    It is slow and allocates per step. It is a test oracle only: nothing
    in the extraction stack may call it. *)

val simulate :
  Hammerstein.Hmodel.t ->
  u:(float -> float) ->
  t_stop:float ->
  dt:float ->
  Signal.Waveform.t
