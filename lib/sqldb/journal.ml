type mutation =
  | Created_table of { name : string; schema : Schema.t }
  | Created_index of { table : string; column : string }
  | Applied of { table : string; deleted : int array; inserted : Value.t array array }
  | Vacuumed of { table : string }

type hook = mutation -> unit
