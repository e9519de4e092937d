module Policy = Agg_cache.Policy

(* The bundle policy is Landlord (the [Greedy_dual] rent core) with one
   extra entry point: a whole (deduplicated) bundle served in a single
   call, with every member's priority refreshed — resident or just
   fetched — so co-requested files stay resident as a unit. *)
include Landlord

let policy_name = "bundle"

let insert t ~pos ~weight:(w : Policy.weight) key =
  Policy.check_weight ~who:policy_name w;
  insert t ~pos ~weight:w key

let request_bundle t ~weight_of keys =
  (* first occurrence of each member wins, in request order *)
  let members =
    List.rev (List.fold_left (fun acc k -> if List.mem k acc then acc else k :: acc) [] keys)
  in
  List.concat_map
    (fun k ->
      if mem t k then begin
        promote t k;
        charge t k ~cost:(weight_of k).Policy.cost;
        []
      end
      else insert t ~pos:Policy.Hot ~weight:(weight_of k) k)
    members
