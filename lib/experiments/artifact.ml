(* The figures promise only the shared envelope; each sweep adds its own
   point fields and inequalities. *)
let no_rules _ = []

let checks =
  [
    ("fig4", no_rules);
    ("fig5", no_rules);
    ("fig6", no_rules);
    ("fig7", no_rules);
    ("mplsweep", Mplsweep.check);
    ("disksweep", Disksweep.check);
    ("logsweep", Logsweep.check);
    ("cleanersweep", Cleanersweep.check);
  ]

let check doc =
  Expcommon.check_envelope doc
  @
  match Option.bind (Json.member "meta" doc) (Json.member "name") with
  | Some (Json.Str name) when name <> "" -> (
    match List.assoc_opt name checks with
    | Some rules -> rules doc
    | None ->
      [
        Printf.sprintf "unknown artifact name %S (expected one of: %s)" name
          (String.concat ", " (List.map fst checks));
      ])
  | _ -> []
