include Bose_util.Json
