package costmodel

// ShardOf and CacheShards expose the cache's shard choice to the
// external tests.
var ShardOf = shardOf

const CacheShards = cacheShards
