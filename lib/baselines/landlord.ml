(* Landlord that re-credits to full cost on a hit is GreedyDual-Size in
   inflation form (Young): the rent drain lowers every credit/size ratio
   by the same amount, which is the same as raising a common floor. So
   Landlord is the [Greedy_dual] core under its own name; only the
   validation messages differ. *)
include Greedy_dual

let policy_name = "landlord"

let create ~capacity =
  if capacity <= 0 then invalid_arg "Landlord.create: capacity must be positive";
  create ~capacity

let charge t key ~cost =
  if cost <= 0 then invalid_arg "Landlord.charge: cost must be positive";
  charge t key ~cost

let insert t ~pos ~weight key =
  Agg_cache.Policy.check_weight ~who:policy_name weight;
  insert t ~pos ~weight key
