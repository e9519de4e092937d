(* The CPU speed the run gets right now. The benchmark shares its machine
   with other tenants, and for stretches of seconds to minutes every
   instruction runs up to 1.8 times slower, a pure integer loop as much as
   the simulator. Host times are therefore reported at a fixed reference
   speed: a wall time is scaled by the speed of a fixed chain of dependent
   multiply-adds, measured just before and just after it, relative to
   [reference_speed]. Wall times are printed beside them. *)

let iterations = 5_000_000

(* Iterations per second of [speed]'s loop on an unthrottled core of a
   2 GHz Intel Xeon (Linux, OCaml 5.1.1, release profile). *)
let reference_speed = 5.7e8

let sink = ref 1

(* Iterations per second of a multiply-add chain; each step needs the
   previous one, so the loop runs at the core's speed whatever the
   compiler does. *)
let speed () =
  let t0 = Agg_obs.Span.now_ns () in
  let x = ref !sink in
  for _ = 1 to iterations do
    x := (!x * 0x5851f42d4c957f2d) + 0x14057b7ef767814f
  done;
  sink := !x;
  float_of_int iterations /. Agg_obs.Span.seconds_since t0

(* [timed f] is [f ()] with its wall seconds and its seconds at the
   reference speed. *)
let timed f =
  let before = speed () in
  let t0 = Agg_obs.Span.now_ns () in
  let v = f () in
  let wall = Agg_obs.Span.seconds_since t0 in
  let after = speed () in
  (v, wall, wall *. (before +. after) /. 2.0 /. reference_speed)
