package costmodel

// ShardHash and CacheShards expose the cache's shard choice to the
// external tests.
var ShardHash = shardHash

const CacheShards = cacheShards
