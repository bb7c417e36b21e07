package codec

// FlateDecode exposes the compress/flate oracle to the external tests.
var FlateDecode = flateDecode
